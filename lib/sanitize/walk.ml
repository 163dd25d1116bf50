(** Single abstract-interpretation pass over a kernel body.

    The walk does three jobs at once: it maintains the affine/uniformity
    environment (a block-uniformity bit on every binding), it emits
    barrier-divergence diagnostics on the spot — a [__syncthreads()] is
    only legal when every enclosing condition is block-uniform and no
    thread-dependent early exit is in flight — and it records
    shared-memory accesses and barriers as a sequenced event trace.
    [Races] and [Bounds] consume the trace afterwards; the
    may-happen-in-parallel approximation lives in the [aseq]/[aloops]
    coordinates recorded here.

    The environment transfer functions ([decl_binding], [assign_binding],
    [join_if], [kill_assigned], [widen_body_ctx], [iter_bound]) are shared
    with [Staticmodel.Gaccess], the global-memory walk that CATT's loop
    reports ([Catt.Analysis]) and the catt-sa footprint both read. *)

module Ast = Minicuda.Ast
module U = Uniformity

type access = {
  arr : string;
  asize : int;  (** declared element count of the shared array *)
  idx : Affine.value;
  idx_itv : Interval.t;  (** index range over all blocks, threads, iterations *)
  aiters : (string * Interval.t) list;  (** iterator ranges at the access *)
  is_write : bool;
  broadcast : bool;  (** plain store of a block-uniform value at a block-uniform index *)
  rhs : Ast.expr option;  (** stored value, for the broadcast-write exemption *)
  aseq : int;
  aloops : int list;  (** enclosing loop ids, outermost first *)
  aloc : Ast.loc;
}

type barrier = {
  bseq : int;
  bloops : int list;
  guarded : bool;
      (** under a condition not proved always-true, or after a
          thread-dependent early exit: does not reliably rendezvous the
          whole block, so it never counts as a separator *)
}

type result = {
  accesses : access list;  (** in walk order *)
  barriers : barrier list;
  diags : Diag.t list;
}

type st = {
  kname : string;
  shared : (string, int) Hashtbl.t;
  mutable seq : int;
  mutable next_loop : int;
  mutable accs : access list;  (* reversed *)
  mutable bars : barrier list;  (* reversed *)
  mutable diags : Diag.t list;  (* reversed *)
  mutable ret_escape : bool;  (* a thread-dependent return has happened *)
  mutable brk_escape : bool;  (* …or a break/continue, scoped to the loop *)
}

let next_seq st =
  st.seq <- st.seq + 1;
  st.seq

(* ------------------------------------------------------------------ *)
(* Environment transfer (shared by the real walk and the widening
   pre-pass)                                                           *)
(* ------------------------------------------------------------------ *)

let decl_binding ctx ty e =
  let b = U.eval ctx e in
  if ty = Ast.Int then b else { b with U.value = Affine.Unknown }

let assign_binding ctx op (target : U.binding) e =
  let rhs = U.eval ctx e in
  let value =
    match op with
    | Ast.Assign_eq -> rhs.U.value
    | Ast.Assign_add -> Affine.add target.U.value rhs.U.value
    | Ast.Assign_sub -> Affine.sub target.U.value rhs.U.value
    | Ast.Assign_mul -> Affine.mul target.U.value rhs.U.value
    | Ast.Assign_div -> (
      match rhs.U.value with
      | Affine.Affine k when Affine.is_constant k ->
        Affine.div_exact target.U.value k.Affine.const
      | _ -> Affine.Unknown)
  in
  let uniform =
    match op with
    | Ast.Assign_eq -> rhs.U.uniform
    | _ -> target.U.uniform && rhs.U.uniform
  in
  U.refine ctx.U.geo { U.value; uniform }

(* merge a variable across the two arms of an [if]; under a divergent
   condition different threads took different arms, so uniformity survives
   only when the variable provably holds the same value on both.  The
   condition's truth is forced only for a binding uniform on both arms
   that they change and disagree on: classifying it enumerates every
   block of the grid. *)
let join_binding ~divergent (b0 : U.binding) bt be =
  let value =
    if Affine.equal_value bt.U.value be.U.value then bt.U.value
    else Affine.Unknown
  in
  let untouched = bt == b0 && be == b0 in
  let agree =
    match (bt.U.value, be.U.value) with
    | Affine.Affine x, Affine.Affine y -> Affine.equal x y
    | _ -> false
  in
  let uniform =
    bt.U.uniform && be.U.uniform
    && (untouched || agree || not (Lazy.force divergent))
  in
  { U.value; uniform }

let join_if ~divergent (ctx : U.ctx) ctx_then ctx_else =
  {
    ctx with
    U.env =
      List.map
        (fun (name, b0) ->
          ( name,
            join_binding ~divergent b0 (U.lookup ctx_then name)
              (U.lookup ctx_else name) ))
        ctx.U.env;
  }

(* variables assigned anywhere in a loop body are unknown — and, since the
   number of executed assignments can differ per thread, no longer provably
   uniform — once the loop is left *)
let kill_assigned (ctx : U.ctx) body =
  let assigned =
    Ast.fold_block
      (fun acc s ->
        match s.Ast.sk with
        | Ast.Assign (Ast.Lvar name, _, _) -> name :: acc
        | Ast.For { loop_var; declares = false; _ } -> loop_var :: acc
        | _ -> acc)
      [] body
  in
  {
    ctx with
    U.env =
      List.map
        (fun (name, b) ->
          if List.mem name assigned then (name, U.unknown_varying)
          else (name, b))
        ctx.U.env;
  }

(* silent pre-pass for accumulator widening: only the env effects, no
   events, no diagnostics *)
let rec abstract_stmt (ctx : U.ctx) (s : Ast.stmt) : U.ctx =
  match s.Ast.sk with
  | Ast.Decl (_, name, None) -> U.bind ctx name U.unknown_varying
  | Ast.Decl (ty, name, Some e) -> U.bind ctx name (decl_binding ctx ty e)
  | Ast.Shared_decl _ | Ast.Assign (Ast.Larr _, _, _) -> ctx
  | Ast.Assign (Ast.Lvar name, op, e) ->
    U.bind ctx name (assign_binding ctx op (U.lookup ctx name) e)
  | Ast.If (cond, then_b, else_b) ->
    let divergent = lazy (U.truth ctx cond = U.Divergent) in
    join_if ~divergent ctx
      (abstract_block ctx then_b)
      (abstract_block ctx else_b)
  | Ast.While (_, body) -> kill_assigned ctx body
  | Ast.For { loop_var; body; _ } ->
    U.bind (kill_assigned ctx body) loop_var U.unknown_varying
  | Ast.Syncthreads | Ast.Return | Ast.Break | Ast.Continue -> ctx
  | Ast.Block body -> abstract_block ctx body

and abstract_block ctx b = List.fold_left abstract_stmt ctx b

(* Widen accumulators: v_out = v_in + δ with a constant δ becomes
   v_in + δ·iter.  [Staticmodel.Gaccess] uses this too, so Eq. 8's loop
   reports and the sanitizer agree on every widened index. *)
let widen_body_ctx (ctx : U.ctx) { Ast.loop_var; init; step; body; _ } : U.ctx
    =
  let init_b = U.eval ctx init in
  let step_b = U.eval ctx step in
  let iterv = Affine.Affine (Affine.iter loop_var) in
  let loop_var_value =
    match step_b.U.value with
    | Affine.Affine k when Affine.is_constant k ->
      Affine.add init_b.U.value (Affine.mul step_b.U.value iterv)
    | _ -> Affine.Unknown
  in
  let loop_var_b =
    U.refine ctx.U.geo
      { U.value = loop_var_value;
        uniform = init_b.U.uniform && step_b.U.uniform }
  in
  let ctx1 = U.bind ctx loop_var loop_var_b in
  let out = abstract_block ctx1 body in
  {
    ctx1 with
    U.env =
      List.map
        (fun (name, b_in) ->
          if name = loop_var then (name, b_in)
          else
            let b_out = U.lookup out name in
            if
              Affine.equal_value b_in.U.value b_out.U.value
              && b_in.U.uniform = b_out.U.uniform
            then
              (name, b_in)
            else
              match (Affine.sub b_out.U.value b_in.U.value, b_in.U.value) with
              | Affine.Affine delta, Affine.Affine base
                when Affine.is_constant delta
                     && Affine.coeff_of_iter base loop_var = 0 ->
                let widened =
                  Affine.add (Affine.Affine base)
                    (Affine.mul (Affine.Affine delta) iterv)
                in
                ( name,
                  U.refine ctx.U.geo
                    { U.value = widened;
                      uniform = b_in.U.uniform && b_out.U.uniform } )
              | _ -> (name, U.unknown_varying))
        ctx1.U.env;
  }

(* ------------------------------------------------------------------ *)
(* Loop trip counts                                                    *)
(* ------------------------------------------------------------------ *)

(* floor division for a positive divisor *)
let fdiv a b = if a >= 0 || a mod b = 0 then a / b else (a / b) - 1

(* Range of the iteration counter of a [for] loop: normalize the condition
   to [rest + c·iter < 0] (or ≤) and bound the largest iter for which it
   can still hold, minimizing [rest] over everything else. *)
let iter_bound (body_ctx : U.ctx) ~loop_var (cond : Ast.expr) : Interval.t =
  let unbounded = { Interval.lo = Some 0; hi = None } in
  match cond with
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, lhs, rhs) -> (
    let d =
      Affine.sub (U.eval body_ctx lhs).U.value (U.eval body_ctx rhs).U.value
    in
    match d with
    | Affine.Unknown -> unbounded
    | Affine.Affine d ->
      let strict, d =
        match op with
        | Ast.Lt -> (true, Affine.Affine d)
        | Ast.Le -> (false, Affine.Affine d)
        | Ast.Gt -> (true, Affine.neg (Affine.Affine d))
        | Ast.Ge -> (false, Affine.neg (Affine.Affine d))
        | _ -> assert false
      in
      (match d with
       | Affine.Affine d ->
         let c = Affine.coeff_of_iter d loop_var in
         if c <= 0 then unbounded
         else begin
           let rest = Affine.drop_iter d loop_var in
           match (U.range_of_affine body_ctx rest).Interval.lo with
           | None -> unbounded
           | Some lo ->
             let hi = if strict then fdiv (-lo - 1) c else fdiv (-lo) c in
             Interval.make 0 (max hi 0)
         end
       | Affine.Unknown -> unbounded))
  | _ -> unbounded

(* ------------------------------------------------------------------ *)
(* The walk proper                                                     *)
(* ------------------------------------------------------------------ *)

(* [div] carries the reason the current context is thread-divergent, [guard]
   counts enclosing conditions not proved always-true, [loops] is the stack
   of enclosing loop ids. *)
type flow = { div : string option; guard : int; loops : int list }

let record_access st ctx flow ~arr ~idx_expr ~is_write ~rhs ~loc =
  match Hashtbl.find_opt st.shared arr with
  | None -> ()  (* global memory: out of scope for the shared-memory checks *)
  | Some asize ->
    let idx_b = U.eval ctx idx_expr in
    let broadcast =
      is_write && rhs <> None && idx_b.U.uniform
      && match rhs with Some e -> (U.eval ctx e).U.uniform | None -> false
    in
    st.accs <-
      {
        arr;
        asize;
        idx = idx_b.U.value;
        idx_itv = U.range_of_value ctx idx_b.U.value;
        aiters = ctx.U.iters;
        is_write;
        broadcast;
        rhs;
        aseq = next_seq st;
        aloops = List.rev flow.loops;
        aloc = loc;
      }
      :: st.accs

(* every shared-array read inside an expression, nested index first *)
let rec record_expr st ctx flow ~loc (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _
  | Ast.Builtin _ ->
    ()
  | Ast.Index (arr, idx) ->
    record_expr st ctx flow ~loc idx;
    record_access st ctx flow ~arr ~idx_expr:idx ~is_write:false ~rhs:None ~loc
  | Ast.Binop (_, a, b) ->
    record_expr st ctx flow ~loc a;
    record_expr st ctx flow ~loc b
  | Ast.Unop (_, a) | Ast.Cast (_, a) -> record_expr st ctx flow ~loc a
  | Ast.Call (_, args) -> List.iter (record_expr st ctx flow ~loc) args
  | Ast.Ternary (c, a, b) ->
    record_expr st ctx flow ~loc c;
    record_expr st ctx flow ~loc a;
    record_expr st ctx flow ~loc b

let diag st ~loc msg =
  st.diags <-
    {
      Diag.severity = Diag.Error;
      kind = Diag.Barrier_divergence;
      kernel = st.kname;
      loc;
      message = msg;
    }
    :: st.diags

let describe_cond cond = Minicuda.Pretty.expr cond

let rec walk_stmt st (ctx : U.ctx) (flow : flow) (s : Ast.stmt) : U.ctx =
  let loc = s.Ast.sloc in
  match s.Ast.sk with
  | Ast.Decl (_, name, None) -> U.bind ctx name U.unknown_varying
  | Ast.Decl (ty, name, Some e) ->
    record_expr st ctx flow ~loc e;
    U.bind ctx name (decl_binding ctx ty e)
  | Ast.Shared_decl _ -> ctx  (* sizes were pre-scanned *)
  | Ast.Assign (Ast.Lvar name, op, e) ->
    record_expr st ctx flow ~loc e;
    U.bind ctx name (assign_binding ctx op (U.lookup ctx name) e)
  | Ast.Assign (Ast.Larr (arr, idx), op, e) ->
    record_expr st ctx flow ~loc idx;
    record_expr st ctx flow ~loc e;
    (* compound ops read-modify-write: both a load and a store, and the
       load makes even a uniform store non-benign *)
    if op <> Ast.Assign_eq then
      record_access st ctx flow ~arr ~idx_expr:idx ~is_write:false ~rhs:None
        ~loc;
    let rhs = if op = Ast.Assign_eq then Some e else None in
    record_access st ctx flow ~arr ~idx_expr:idx ~is_write:true ~rhs ~loc;
    ctx
  | Ast.Syncthreads ->
    (if st.ret_escape || st.brk_escape then
       diag st ~loc
         "barrier reachable after a thread-dependent return, break or \
          continue: threads that left can never arrive"
     else
       match flow.div with
       | Some reason ->
         diag st ~loc
           (Printf.sprintf
              "barrier under thread-divergent control flow (%s): threads of \
               a block may not all reach it"
              reason)
       | None -> ());
    st.bars <-
      {
        bseq = next_seq st;
        bloops = List.rev flow.loops;
        guarded =
          flow.guard > 0 || flow.div <> None || st.ret_escape || st.brk_escape;
      }
      :: st.bars;
    ctx
  | Ast.Return ->
    if flow.div <> None then st.ret_escape <- true;
    ctx
  | Ast.Break | Ast.Continue ->
    if flow.div <> None then st.brk_escape <- true;
    ctx
  | Ast.If (cond, then_b, else_b) ->
    record_expr st ctx flow ~loc cond;
    let t = U.truth ctx cond in
    let guarded = { flow with guard = flow.guard + 1 } in
    let divergent_flow =
      {
        guarded with
        div =
          (match flow.div with
          | Some _ as d -> d
          | None ->
            Some
              (Printf.sprintf "guard `%s` is thread-dependent"
                 (describe_cond cond)));
      }
    in
    (* a decided condition leaves one arm running unconditionally and the
       other dead; the dead arm is still walked (guarded) so egregious code
       there surfaces, but it cannot relax the live arm *)
    let then_flow, else_flow =
      match t with
      | U.Always_true -> (flow, guarded)
      | U.Always_false -> (guarded, flow)
      | U.Uniform -> (guarded, guarded)
      | U.Divergent -> (divergent_flow, divergent_flow)
    in
    let ctx_then = walk_block st ctx then_flow then_b in
    let ctx_else = walk_block st ctx else_flow else_b in
    join_if ~divergent:(Lazy.from_val (t = U.Divergent)) ctx ctx_then ctx_else
  | Ast.While (cond, body) ->
    let ctx_in = kill_assigned ctx body in
    record_expr st ctx_in flow ~loc cond;
    let id = st.next_loop in
    st.next_loop <- id + 1;
    let iter_name = Printf.sprintf "<while:%d>" id in
    let body_ctx =
      U.push_iter ctx_in iter_name { Interval.lo = Some 0; hi = None }
    in
    let t = U.truth ctx_in cond in
    let body_flow =
      {
        flow with
        loops = id :: flow.loops;
        div =
          (if t = U.Divergent && flow.div = None then
             Some
               (Printf.sprintf "loop condition `%s` is thread-dependent"
                  (describe_cond cond))
           else flow.div);
      }
    in
    let saved_brk = st.brk_escape in
    let _ = walk_block st body_ctx body_flow body in
    st.brk_escape <- saved_brk;
    ctx_in
  | Ast.For ({ loop_var; init; cond; step; body; _ } as loop) ->
    record_expr st ctx flow ~loc init;
    let id = st.next_loop in
    st.next_loop <- id + 1;
    let widened = widen_body_ctx ctx loop in
    let probe_ctx = U.push_iter widened loop_var Interval.top in
    let range = iter_bound probe_ctx ~loop_var cond in
    let body_ctx = U.push_iter widened loop_var range in
    let t = U.truth body_ctx cond in
    let body_flow =
      {
        flow with
        loops = id :: flow.loops;
        div =
          (if t = U.Divergent && flow.div = None then
             Some
               (Printf.sprintf
                  "loop trip count depends on the thread (condition `%s`)"
                  (describe_cond cond))
           else flow.div);
      }
    in
    (* condition and step re-execute every iteration *)
    record_expr st body_ctx body_flow ~loc cond;
    record_expr st body_ctx body_flow ~loc step;
    let saved_brk = st.brk_escape in
    let _ = walk_block st body_ctx body_flow body in
    st.brk_escape <- saved_brk;
    U.bind (kill_assigned ctx body) loop_var U.unknown_varying
  | Ast.Block body -> walk_block st ctx flow body

and walk_block st ctx flow b = List.fold_left (fun c s -> walk_stmt st c flow s) ctx b

let run (geo : Geom.t) (k : Ast.kernel) : result =
  let shared = Hashtbl.create 4 in
  Ast.fold_block
    (fun () s ->
      match s.Ast.sk with
      | Ast.Shared_decl (_, name, size) -> Hashtbl.replace shared name size
      | _ -> ())
    () k.Ast.body;
  let st =
    {
      kname = k.Ast.kernel_name;
      shared;
      seq = 0;
      next_loop = 0;
      accs = [];
      bars = [];
      diags = [];
      ret_escape = false;
      brk_escape = false;
    }
  in
  (* scalar parameters are launch constants: unknown but uniform *)
  let ctx0 =
    List.fold_left
      (fun ctx p ->
        match p.Ast.param_ty with
        | Ast.Ptr _ -> ctx
        | _ -> U.bind ctx p.Ast.param_name U.unknown_uniform)
      (U.init geo) k.Ast.params
  in
  let _ =
    walk_block st ctx0 { div = None; guard = 0; loops = [] } k.Ast.body
  in
  {
    accesses = List.rev st.accs;
    barriers = List.rev st.bars;
    diags = List.rev st.diags;
  }
