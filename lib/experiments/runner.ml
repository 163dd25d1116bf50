(** Executes a workload on the simulator under a throttling scheme.

    Schemes:
    - [Baseline] — untouched kernels at full TLP;
    - [Catt] — each kernel goes through the full {!Catt.Driver} pass
      (per-loop decisions, Figs. 4/5 transforms, carveout choice);
    - [Fixed (n, m)] — the BFTT-style uniform transformation: every loop of
      every kernel split by [n] (clamped per kernel to a divisor of its
      warp count) and TB residency reduced by [m].

    Every run re-seeds the workload's inputs identically, executes the full
    launch sequence on a fresh device, and checks the CPU oracle — so a
    miscompiled transformation fails loudly rather than producing a fast
    wrong answer.  Results are memoized per cell: a config and one or more
    co-resident (workload, scheme) members. *)

module Config = Gpusim.Config
module Gpu = Gpusim.Gpu

let seed = 42

(** Re-exported from {!Scheme} so [Runner.Baseline] etc. keep working;
    the single definition lives there, shared with CLI flags, the serve
    wire protocol, and cache keys. *)
type scheme = Scheme.t =
  | Baseline
  | Catt
  | Fixed of int * int
  | Dynamic
  | CcwsSched
  | DawsSched
  | Swl of int
  | Bypass
  | CattSa
  | Ciao
  | Ata

let scheme_label = Scheme.label
let scheme_of_string = Scheme.of_string

type kernel_stats = {
  kernel_name : string;
  stats : Gpusim.Stats.t;  (** aggregated over repeated launches *)
  tlp : int * int;  (** active (warps per TB, TBs per SM) *)
  trace : Gpusim.Trace.t option;
  profile : Profile.Collector.t option;
      (** when profiled, one collector per kernel, aggregated over its
          repeated launches *)
}

type app_run = {
  workload : string;
  scheme : scheme;
  kernels : kernel_stats list;  (** launch order, deduplicated by name *)
  total_cycles : int;
  verified : (unit, string) result;
  catt_analyses : (string * Catt.Driver.t) list;  (** only for [Catt] *)
  manifest : Manifest.t option;
      (** provenance of a simulated (not memo-served) run; persisted
          with the cache entry but never part of the simulated payload *)
}

(* ------------------------------------------------------------------ *)
(* Requests: the one description of "run this cell like so"            *)
(* ------------------------------------------------------------------ *)

(** A single record describing one execution of a cell: a config and an
    ordered list of (workload, scheme) members, each on its own device,
    all sharing one simulated GPU.  A solo cell is a group of one.  Build
    one with {!Request.make} (solo) or {!Request.group} and hand it to
    {!exec}. *)
module Request = struct
  type t = {
    cfg : Config.t;
    members : (Workloads.Workload.t * Scheme.t) list;
        (** launched co-resident, in this order; never empty *)
    trace : bool;  (** collect per-kernel access traces (bypasses cache) *)
    profile : bool;  (** attach a {!Profile.Collector} per kernel *)
    timeline : bool;  (** with [profile], also record the cycle timeline *)
    tenant : string option;
        (** disk-cache shard; [None] uses the shared top-level cache *)
    on_device : (Gpu.device -> unit) option;
        (** observe each member's final device state before it is
            dropped *)
  }

  let make ?(trace = false) ?(profile = false) ?(timeline = false) ?tenant
      ?on_device cfg workload scheme =
    {
      cfg;
      members = [ (workload, scheme) ];
      trace;
      profile;
      timeline;
      tenant;
      on_device;
    }

  (** A cell of co-resident members.  Only compile-time schemes
      ({!Scheme.is_static}) can share the SMs with another member: a
      runtime scheme's per-SM state cannot be attributed to one kernel. *)
  let group ?tenant cfg members =
    let refusal =
      match members with
      | [] -> Some "a cell needs at least one member"
      | [ _ ] -> None
      | _ ->
        List.find_map
          (fun ((w : Workloads.Workload.t), s) ->
            if Scheme.is_static s then None
            else
              Some
                (Printf.sprintf
                   "co-resident mode requires a compile-time scheme; %s \
                    requested %s"
                   w.Workloads.Workload.name (Scheme.label s)))
          members
    in
    match refusal with
    | Some msg -> Error msg
    | None ->
      Ok
        {
          cfg;
          members;
          trace = false;
          profile = false;
          timeline = false;
          tenant;
          on_device = None;
        }

  (** Trace/profile/timeline payloads and device observers are never
      persisted, so such requests always simulate. *)
  let bypasses_cache r =
    r.trace || r.profile || r.timeline || Option.is_some r.on_device
end

(** Where {!exec_with_source} found the result.  [Coalesced] marks a
    request that joined an identical in-flight computation (the
    single-flight table) and received the leader's result without
    simulating — served without simulation work, like a memo hit. *)
type source = Memo | Disk | Simulated | Coalesced

let source_label = function
  | Memo -> "memo"
  | Disk -> "cache hit"
  | Simulated -> "cache miss"
  | Coalesced -> "coalesced"

(* ------------------------------------------------------------------ *)
(* Per-kernel preparation under a scheme                               *)
(* ------------------------------------------------------------------ *)

type prepared = {
  prog : Gpusim.Bytecode.program;
  carveout : int option;
  prepared_tlp : int * int;
  analysis : Catt.Driver.t option;
}

(* Eq. 3 occupancy of a compiled kernel at its launch geometry *)
let occupancy cfg prog geo =
  Catt.Occupancy.configure cfg
    ~grid_tbs:(geo.Catt.Analysis.grid_x * geo.Catt.Analysis.grid_y)
    ~tb_threads:(geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y)
    ~num_regs:prog.Gpusim.Bytecode.num_regs
    ~shared_bytes:prog.Gpusim.Bytecode.shared_bytes ()

let largest_divisor_leq value cap =
  List.fold_left
    (fun acc d -> if d <= cap then d else acc)
    1
    (Catt.Throttle.divisors value)

(* BFTT warp splitting under the sanitizer's gate.  The uniform
   whole-kernel split is blind: on kernels with thread-divergent control
   flow it would plant barriers where part of the block never arrives.
   When the gate refuses the whole-kernel split, retry loop by loop and
   keep only the splits the sanitizer accepts (the combined plan is gated
   once more — phases of different loops could in principle interact). *)
let gated_warp_throttle_all kernel geo ~n ~warps_per_tb ~warp_size
    ~one_dim_block =
  if n <= 1 then kernel
  else begin
    let gate k = Sanitize.Check.gate geo ~original:kernel ~transformed:k in
    let all =
      Catt.Transform.warp_throttle_all kernel ~n ~warps_per_tb ~warp_size
        ~one_dim_block
    in
    match gate all with
    | Ok () -> all
    | Error _ ->
      let plan =
        List.filter_map
          (fun loop_id ->
            let cand =
              Catt.Transform.warp_throttle kernel ~loop_id ~n ~warps_per_tb
                ~warp_size ~one_dim_block
            in
            match gate cand with Ok () -> Some (loop_id, n) | Error _ -> None)
          (List.init (Catt.Transform.count_top_loops kernel) Fun.id)
      in
      if plan = [] then kernel
      else
        let combined =
          Catt.Transform.warp_throttle_plan kernel ~plan ~warps_per_tb
            ~warp_size ~one_dim_block
        in
        (match gate combined with Ok () -> combined | Error _ -> kernel)
  end

(** The source a [Fixed (n, m)] scheme actually executes, with its TLP and
    carveout.  Shared with the sanitize-all artifact, so what that sweep
    checks is exactly what runs. *)
type fixed_variant = {
  fixed_kernel : Minicuda.Ast.kernel;
  fixed_tlp : int * int;  (** requested (warps per TB, TBs per SM) *)
  fixed_carveout : int option;
}

let fixed_variant cfg kernel geo ~n ~m =
  let prog0 = Gpusim.Codegen.compile_kernel kernel in
  let tb_threads = geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y in
  match occupancy cfg prog0 geo with
  | Error msg -> Error msg
  | Ok occ ->
    let warps_per_tb = occ.Catt.Occupancy.warps_per_tb in
    let tbs = occ.Catt.Occupancy.tbs_per_sm in
    let n' = largest_divisor_leq warps_per_tb n in
    let m' = min m (tbs - 1) in
    let one_dim_block = geo.Catt.Analysis.block_y = 1 in
    let k =
      gated_warp_throttle_all kernel geo ~n:n' ~warps_per_tb
        ~warp_size:cfg.Config.warp_size ~one_dim_block
    in
    let k, carveout, tbs' =
      if m' > 0 then
        match
          Catt.Transform.plan_tb_throttle cfg ~tb_threads
            ~num_regs:prog0.Gpusim.Bytecode.num_regs
            ~shared_bytes:prog0.Gpusim.Bytecode.shared_bytes
            ~target_tbs:(tbs - m')
        with
        | Some (c, dummy_bytes) ->
          let kt =
            Catt.Transform.tb_throttle k ~dummy_elems:(max 1 (dummy_bytes / 4))
          in
          (* the pad store is a benign broadcast, so this gate passes; kept
             as a hard check so a regression in tb_throttle cannot ship *)
          (match Sanitize.Check.gate geo ~original:kernel ~transformed:kt with
          | Ok () -> (kt, Some c, tbs - m')
          | Error _ -> (k, None, tbs))
        | None -> (k, None, tbs)
      else (k, None, tbs)
    in
    Ok
      {
        fixed_kernel = k;
        fixed_tlp = (warps_per_tb / n', tbs');
        fixed_carveout = carveout;
      }

let prepare_fixed cfg kernel geo ~n ~m =
  match fixed_variant cfg kernel geo ~n ~m with
  | Error _ as e -> e
  | Ok v ->
    Ok
      {
        prog = Gpusim.Codegen.compile_kernel v.fixed_kernel;
        carveout = v.fixed_carveout;
        prepared_tlp = v.fixed_tlp;
        analysis = None;
      }

let prepare_catt ?model cfg kernel geo =
  match Catt.Driver.analyze ?model cfg kernel geo with
  | Error _ as e -> e
  | Ok t ->
    let transformed = t.Catt.Driver.transformed in
    (* the kernel-level TLP: the strongest of the per-loop selections *)
    let tlp =
      List.fold_left
        (fun (bw, bt) (l : Catt.Driver.loop_decision) ->
          let d = l.Catt.Driver.decision in
          if d.Catt.Throttle.throttled then
            ( min bw d.Catt.Throttle.active_warps_per_tb,
              min bt d.Catt.Throttle.active_tbs )
          else (bw, bt))
        (fst t.Catt.Driver.baseline_tlp, t.Catt.Driver.resident_tbs)
        t.Catt.Driver.loops
    in
    Ok
      {
        prog = Gpusim.Codegen.compile_kernel transformed;
        carveout = Some t.Catt.Driver.final_carveout;
        prepared_tlp = tlp;
        analysis = Some t;
      }

let prepare_baseline cfg kernel geo =
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let tlp =
    match occupancy cfg prog geo with
    | Ok occ -> (occ.Catt.Occupancy.warps_per_tb, occ.Catt.Occupancy.tbs_per_sm)
    | Error _ -> (0, 0)
  in
  { prog; carveout = None; prepared_tlp = tlp; analysis = None }

(* ------------------------------------------------------------------ *)
(* Whole-application execution                                         *)
(* ------------------------------------------------------------------ *)

(* geometry per kernel comes from its first launch *)
let geometry_of_kernel (w : Workloads.Workload.t) name =
  match
    List.find_opt
      (fun (l : Workloads.Workload.kernel_launch) -> l.kernel_name = name)
      w.Workloads.Workload.launches
  with
  | Some l -> Workloads.Workload.geometry_of l
  | None -> invalid_arg (Printf.sprintf "kernel %s is never launched" name)

(* one simulated (workload, scheme) cell — the unit the bench gate's
   cells/sec throughput counts *)
let m_cells = Obs.Metrics.counter "sim.cells"

(** Prepare every kernel of [w] under [scheme], in source order. *)
let prepare_all cfg (w : Workloads.Workload.t) scheme =
  let prepared =
    List.fold_left
      (fun acc (name, kernel) ->
        match acc with
        | Error _ -> acc
        | Ok ps ->
          let geo = geometry_of_kernel w name in
          let p =
            match scheme with
            | Baseline | Dynamic | CcwsSched | DawsSched | Swl _ | Bypass
            | Ciao | Ata ->
              Ok (prepare_baseline cfg kernel geo)
            | Catt -> prepare_catt cfg kernel geo
            | CattSa -> prepare_catt ~model:`Sa cfg kernel geo
            | Fixed (n, m) -> prepare_fixed cfg kernel geo ~n ~m
          in
          (match p with
          | Ok p -> Ok ((name, p) :: ps)
          | Error msg ->
            Error
              (Printf.sprintf "%s, kernel %s, scheme %s:\n%s"
                 w.Workloads.Workload.name name (scheme_label scheme) msg)))
      (Ok [])
      (Workloads.Workload.kernels w)
  in
  Result.map List.rev prepared

(* repeated launches of one kernel aggregate into a single entry, with
   cycles summed (Stats.accumulate alone takes the max) *)
let note_kernel acc ~name ~tlp ~trace ~profile stats =
  match List.assoc_opt name !acc with
  | Some ks ->
    ks.stats.Gpusim.Stats.cycles <-
      ks.stats.Gpusim.Stats.cycles + stats.Gpusim.Stats.cycles;
    let cycles = ks.stats.Gpusim.Stats.cycles in
    Gpusim.Stats.accumulate ~into:ks.stats stats;
    ks.stats.Gpusim.Stats.cycles <- cycles
  | None ->
    acc := !acc @ [ (name, { kernel_name = name; stats; tlp; trace; profile }) ]

(* the labels a cell is logged, spanned and cached under: a solo cell's
   own (workload, scheme), a group's "A+B" and "co(sa,sb)" *)
let cell_labels = function
  | [ ((w : Workloads.Workload.t), s) ] ->
    (w.Workloads.Workload.name, scheme_label s)
  | members ->
    ( String.concat "+"
        (List.map
           (fun ((w : Workloads.Workload.t), _) -> w.Workloads.Workload.name)
           members),
      Printf.sprintf "co(%s)"
        (String.concat "," (List.map (fun (_, s) -> scheme_label s) members)) )

(* one member of a cell being simulated *)
type member = {
  w : Workloads.Workload.t;
  mscheme : scheme;
  prepared : (string * prepared) list;
  dev : Gpu.device;
  launches : (string * Gpu.launch * (int * int)) list;
      (** kernel name, launch and TLP, in launch order *)
  acc : (string * kernel_stats) list ref;
  collector_for : string -> Profile.Collector.t option;
}

(** Simulate a cell, bypassing every cache: one run per member, in
    member order.  Launches are zipped in order and each common position
    runs as one {!Gpu.launch_group}.  A member with launches left over
    finishes alone on the then-idle machine, under the same disjoint
    address split as the group phase, so the warm shared L2 can never
    serve it another member's lines.  Every CPU oracle still verifies,
    and every counter stays attributed to its kernel.  Launch refusals
    come back as [Error]. *)
let simulate (req : Request.t) =
  let { Request.cfg; members; trace; profile; timeline; tenant = _; on_device } =
    req
  in
  let workload_label, label = cell_labels members in
  Obs.Span.with_span "runner.simulate"
    ~attrs:
      [
        ("workload", Obs.Span.Str workload_label);
        ("scheme", Obs.Span.Str label);
      ]
  @@ fun _ ->
  let started = Unix.gettimeofday () in
  let rec prepare = function
    | [] -> Ok []
    | (w, scheme) :: rest ->
      Result.bind (prepare_all cfg w scheme) (fun p ->
          Result.map (List.cons p) (prepare rest))
  in
  match prepare members with
  | Error _ as e -> e
  | Ok prepared -> (
    (* one collector per kernel name: repeated launches of the same kernel
       aggregate into it, matching how stats accumulate *)
    let collectors () =
      let table : (string, Profile.Collector.t) Hashtbl.t = Hashtbl.create 4 in
      fun name ->
        if not profile then None
        else
          Some
            (match Hashtbl.find_opt table name with
            | Some c -> c
            | None ->
              let c = Profile.Collector.create () in
              if timeline then Profile.Collector.enable_timeline c;
              Hashtbl.add table name c;
              c)
    in
    let launch_of (w : Workloads.Workload.t) scheme prepared collector_for
        (l : Workloads.Workload.kernel_launch) =
      let p = List.assoc l.kernel_name prepared in
      ( l.kernel_name,
        Gpu.default_launch ?smem_carveout:p.carveout ~trace
          ~runtime_throttle:
            (match scheme with
            | Dynamic -> `Dyncta
            | CcwsSched -> `Ccws
            | DawsSched -> `Daws
            | Swl k -> `Swl k
            | Ciao -> `Ciao
            | Ata -> `Ata
            | Baseline | Catt | CattSa | Fixed _ | Bypass -> `None)
          ~bypass_arrays:
            (if scheme = Bypass then
               Catt.Bypass.divergent_arrays cfg
                 (Workloads.Workload.find_kernel w l.kernel_name)
                 (Workloads.Workload.geometry_of l)
             else [])
          ~prog:p.prog ~grid:l.grid ~block:l.block
          ?profile:(collector_for l.kernel_name)
          l.args,
        p.prepared_tlp )
    in
    try
      (* every member on its own device (its own memory namespace), all
         on one L2 *)
      let dev0 = Gpu.create cfg in
      let ms =
        List.mapi
          (fun k (((w : Workloads.Workload.t), mscheme), prepared) ->
            let dev = if k = 0 then dev0 else Gpu.create_shared_l2 dev0 in
            w.Workloads.Workload.setup dev (Gpu_util.Rng.create seed);
            let collector_for = collectors () in
            let launches =
              List.map
                (launch_of w mscheme prepared collector_for)
                w.Workloads.Workload.launches
            in
            { w; mscheme; prepared; dev; launches; acc = ref []; collector_for })
          (List.combine members prepared)
      in
      (* one fixed address split for the whole sequence: member 0 binds
         from the default base, each later member above the top address
         of the previous member's largest launch.  The shared L2 stays
         warm across launches, so tail launches (unequal launch counts)
         keep the same disjoint layout as the group phase. *)
      let _, bases =
        List.fold_left_map
          (fun base m ->
            ( List.fold_left
                (fun top (_, launch, _) ->
                  max top (Gpu.args_top m.dev ~base launch))
                base m.launches,
              base ))
          cfg.Config.line_bytes ms
      in
      let rec go pending =
        match
          List.filter_map
            (function
              | m, base, l :: rest -> Some (m, base, l, rest)
              | _, _, [] -> None)
            pending
        with
        | [] -> ()
        | active ->
          let results =
            Gpu.launch_group
              (List.map
                 (fun (m, base, (_, launch, _), _) ->
                   { Gpu.dev = m.dev; launch; base })
                 active)
          in
          List.iter2
            (fun (m, _, (name, _, tlp), _) (stats, tr) ->
              note_kernel m.acc ~name ~tlp
                ~trace:(if trace then Some tr else None)
                ~profile:(m.collector_for name) stats)
            active results;
          go (List.map (fun (m, base, _, rest) -> (m, base, rest)) active)
      in
      go (List.map2 (fun m base -> (m, base, m.launches)) ms bases);
      (* observe the final device state (e.g. digest the memory image for
         the golden-grid bit-identity snapshots) before it goes out of
         scope *)
      Option.iter (fun f -> List.iter (fun m -> f m.dev) ms) on_device;
      Obs.Metrics.incr m_cells;
      let solo = List.length ms = 1 in
      Ok
        (List.map
           (fun m ->
             let kernels = List.map snd !(m.acc) in
             {
               workload = m.w.Workloads.Workload.name;
               scheme = m.mscheme;
               kernels;
               total_cycles =
                 List.fold_left
                   (fun t ks -> t + ks.stats.Gpusim.Stats.cycles)
                   0 kernels;
               verified = m.w.Workloads.Workload.verify m.dev;
               catt_analyses =
                 List.filter_map
                   (fun (name, p) ->
                     Option.map (fun a -> (name, a)) p.analysis)
                   m.prepared;
               (* provenance is per cell; a group's payload never carried it *)
               manifest =
                 (if solo then
                    Some
                      (Manifest.make cfg ~workload:workload_label
                         ~scheme:label ~seed
                         ~wall_seconds:(Unix.gettimeofday () -. started))
                  else None);
             })
           ms)
    with Gpu.Launch_error msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the persistent cache's wire format)                *)
(* ------------------------------------------------------------------ *)

module Json = Gpu_util.Json

(* bump when the layout below changes — or when the transformation a scheme
   applies changes, since cached cycles would then describe a kernel that is
   no longer produced (v2: sanitizer-gated BFTT splitting) *)
let cache_format_version = 2

let kernel_stats_to_json (ks : kernel_stats) =
  Json.Obj
    [
      ("kernel", Json.String ks.kernel_name);
      ( "tlp",
        Json.List [ Json.Int (fst ks.tlp); Json.Int (snd ks.tlp) ] );
      ("stats", Gpusim.Stats.to_json ks.stats);
    ]

(** Everything except traces (trace runs bypass the cache) and the CATT
    analyses, which are static, deterministic and cheap — {!run_of_json}
    recomputes them instead of persisting the whole analysis tree. *)
let run_to_json (r : app_run) =
  Json.Obj
    [
      ("version", Json.Int cache_format_version);
      ("workload", Json.String r.workload);
      ("scheme", Json.String (scheme_label r.scheme));
      ("total_cycles", Json.Int r.total_cycles);
      ( "verified",
        match r.verified with
        | Ok () -> Json.Null
        | Error msg -> Json.String msg );
      ("kernels", Json.List (List.map kernel_stats_to_json r.kernels));
      ( "manifest",
        match r.manifest with
        | Some m -> Manifest.to_json m
        | None -> Json.Null );
    ]

let analyses_for cfg (w : Workloads.Workload.t) scheme =
  let collect model =
    List.filter_map
      (fun (name, kernel) ->
        match
          Catt.Driver.analyze ~model cfg kernel (geometry_of_kernel w name)
        with
        | Ok t -> Some (name, t)
        | Error _ -> None)
      (Workloads.Workload.kernels w)
  in
  match scheme with
  | Catt -> collect `Eq8
  | CattSa -> collect `Sa
  | Baseline | Fixed _ | Dynamic | CcwsSched | DawsSched | Swl _ | Bypass
  | Ciao | Ata ->
    []

let run_of_json cfg (w : Workloads.Workload.t) scheme json =
  Json.decode
    (fun j ->
      if Json.to_int (Json.member "version" j) <> cache_format_version then
        raise (Json.Type_error "stale cache format");
      if Json.to_str (Json.member "workload" j) <> w.Workloads.Workload.name then
        raise (Json.Type_error "workload mismatch");
      if Json.to_str (Json.member "scheme" j) <> scheme_label scheme then
        raise (Json.Type_error "scheme mismatch");
      let kernels =
        List.map
          (fun kj ->
            let stats =
              match Gpusim.Stats.of_json (Json.member "stats" kj) with
              | Ok s -> s
              | Error msg -> raise (Json.Type_error msg)
            in
            let tlp =
              match Json.to_list (Json.member "tlp" kj) with
              | [ a; b ] -> (Json.to_int a, Json.to_int b)
              | _ -> raise (Json.Type_error "tlp must be a pair")
            in
            {
              kernel_name = Json.to_str (Json.member "kernel" kj);
              stats;
              tlp;
              trace = None;
              profile = None;
            })
          (Json.to_list (Json.member "kernels" j))
      in
      {
        workload = w.Workloads.Workload.name;
        scheme;
        kernels;
        total_cycles = Json.to_int (Json.member "total_cycles" j);
        verified =
          (match Json.member "verified" j with
          | Json.Null -> Ok ()
          | v -> Error (Json.to_str v));
        catt_analyses = analyses_for cfg w scheme;
        manifest =
          (* lenient: entries written before manifests existed (or with a
             stale manifest version) still yield their simulated payload *)
          (match Json.member_opt "manifest" j with
          | None | Some Json.Null -> None
          | Some mj -> (
            match Manifest.of_json mj with Ok m -> Some m | Error _ -> None));
      })
    json

(* A group's entry: every member's run under its letter, a, b, ... in
   canonical member order.  Bump the version when the layout (or the
   group launch semantics) changes. *)
let pair_cache_format_version = 1

let member_field k = String.make 1 (Char.chr (Char.code 'a' + k))

(** The cache payload of a cell: a solo cell's {!run_to_json}, a group's
    [{version, a, b, ...}]. *)
let cell_to_json = function
  | [ r ] -> run_to_json r
  | runs ->
    Json.Obj
      (("version", Json.Int pair_cache_format_version)
      :: List.mapi (fun k r -> (member_field k, run_to_json r)) runs)

let cell_of_json cfg members json =
  match members with
  | [ (w, scheme) ] ->
    Result.map (fun r -> [ r ]) (run_of_json cfg w scheme json)
  | _ ->
    Json.decode
      (fun j ->
        if Json.to_int (Json.member "version" j) <> pair_cache_format_version
        then raise (Json.Type_error "stale pair cache format");
        List.mapi
          (fun k (w, scheme) ->
            match run_of_json cfg w scheme (Json.member (member_field k) j) with
            | Ok r -> r
            | Error msg -> raise (Json.Type_error msg))
          members)
      json

(** The cache identity of a cell.  A group is a *set* of members, so its
    members are sorted into a canonical order: (A, B) and (B, A) address
    one entry and simulate identically, and [order] (the caller's index
    of each canonical member) swaps attribution back on the way out.  A
    solo cell is its own canonical form. *)
type identity = {
  canonical : (Workloads.Workload.t * scheme) list;
  order : int list;
  workload_label : string;
  scheme_label : string;
}

let identity members =
  let canonical, order =
    match members with
    | [ _ ] -> (members, [ 0 ])
    | _ ->
      let key ((w : Workloads.Workload.t), s) =
        w.Workloads.Workload.name ^ "+" ^ scheme_label s
      in
      List.split
        (List.stable_sort
           (fun (a, _) (b, _) -> compare (key a) (key b))
           (List.mapi (fun k m -> (m, k)) members))
  in
  let workload_label, scheme_label = cell_labels canonical in
  { canonical; order; workload_label; scheme_label }

(* canonical-order runs back in the caller's member order *)
let orient id runs =
  match runs with
  | [ _ ] -> runs
  | _ ->
    List.map snd
      (List.sort (fun (a, _) (b, _) -> compare a b) (List.combine id.order runs))

(* ------------------------------------------------------------------ *)
(* Memoization: a thread-safe in-process table backed by the on-disk   *)
(* cache.  Pool workers race on the table, so every access is locked;  *)
(* simulation itself runs outside the lock (each run owns its device). *)
(* ------------------------------------------------------------------ *)

(* keyed by a cell's canonical labels; no workload name contains '+', so
   a group's "A+B" key never meets a solo cell's *)
let memo : (string, app_run list) Hashtbl.t = Hashtbl.create 64

let memo_lock = Mutex.create ()

(* the in-process memo is tenant-qualified like the disk shards: tenant
   B's first request must not be short-circuited by tenant A's memo entry,
   or B's shard would never be populated *)
let memo_key ?tenant cfg ~workload ~scheme =
  let base = Cache.key cfg ~workload ~scheme ~seed in
  match tenant with None -> base | Some t -> base ^ "|tenant=" ^ t

(* ------------------------------------------------------------------ *)
(* Single-flight: dedup of identical in-flight cells                   *)
(* ------------------------------------------------------------------ *)

(* Keyed by the tenant-INDEPENDENT cache key: results are deterministic
   per cell, so concurrent identical requests from different tenants can
   share one simulation — each follower still adopts the result into its
   own memo entry and disk shard, so per-tenant isolation of stored
   results survives coalescing. *)
let flights : (app_run list * source, string) result Gpu_util.Single_flight.t =
  Gpu_util.Single_flight.create ()

let m_coalesced = Obs.Metrics.counter "runner.coalesced"
(** Requests that joined an in-flight identical computation. *)

let coalesced_total () = Obs.Metrics.value m_coalesced

(** Cells actually simulated ({!simulate} completions) — the
    denominator the dedup proof counts. *)
let simulated_total () = Obs.Metrics.value m_cells

let flights_in_progress () = Gpu_util.Single_flight.in_flight flights

(* live gauge: sampled at Metrics.snapshot time, so the admin plane sees
   the current dedup pressure, not a stale mirror *)
let () =
  Obs.Metrics.gauge_fn "runner.flights_in_progress" (fun () ->
      float_of_int (flights_in_progress ()))

(* Leaders deposit their trace id on the flight; joiners record it, so a
   coalesced request's span links to the flight that computed it. *)
let flight_tag () =
  match Obs.Span.current_trace_id () with Some tid -> tid | None -> ""

let progress : bool ref = ref false
(** When set, one line per simulated or cache-loaded run goes to stderr. *)

(** Drops every in-process result (the disk cache is untouched) — lets
    tests exercise the cold-start path of a fresh process. *)
let clear_memo () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo;
  Mutex.unlock memo_lock

let log_run id source runs =
  if !progress then
    Printf.eprintf "[run] %-12s %-16s %10d cycles  (%s)\n%!" id.workload_label
      id.scheme_label
      (List.fold_left (fun t r -> t + r.total_cycles) 0 runs)
      source

let with_lock f =
  Mutex.lock memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_lock) f

(** Compute one cell: in-process memo, then the single-flight table,
    then the disk cache, then a real simulation (persisted on
    completion).  Concurrent identical cells — pool workers racing on
    the same cell, from any tenant — coalesce: exactly one leader
    simulates, every follower blocks on the flight entry and receives
    the leader's result as [Coalesced], adopting it into its own
    tenant's memo entry and disk shard.  Preparation failures and launch
    refusals come back as [Error] with the located report, are fanned
    out to every waiter, and are never cached.  Runs come back in the
    request's member order; the second component says where they came
    from — the serve layer uses it for per-tenant hit/miss
    attribution. *)
let exec_with_source (req : Request.t) =
  let cfg = req.Request.cfg and tenant = req.Request.tenant in
  let id = identity req.Request.members in
  Obs.Span.with_span "runner.run"
    ~attrs:
      [
        ("workload", Obs.Span.Str id.workload_label);
        ("scheme", Obs.Span.Str id.scheme_label);
      ]
  @@ fun run_span ->
  let note_source src =
    Option.iter
      (fun s -> Obs.Span.add_attr s "source" (Obs.Span.Str src))
      run_span
  in
  if Request.bypasses_cache req then begin
    note_source "simulated (uncached)";
    Result.map (fun runs -> (runs, Simulated)) (simulate req)
  end
  else begin
    let workload = id.workload_label and scheme = id.scheme_label in
    let key = memo_key ?tenant cfg ~workload ~scheme in
    match with_lock (fun () -> Hashtbl.find_opt memo key) with
    | Some runs ->
      note_source "memo";
      Ok (orient id runs, Memo)
    | None -> (
      let adopt runs = with_lock (fun () -> Hashtbl.replace memo key runs) in
      let store runs =
        Cache.store ?tenant cfg ~workload ~scheme ~seed (cell_to_json runs)
      in
      (* the flight key is tenant-independent: identical cells coalesce
         across tenants, attribution and storage stay per tenant *)
      let flight_key = memo_key cfg ~workload ~scheme in
      let compute () =
        let from_disk =
          match Cache.load ?tenant cfg ~workload ~scheme ~seed with
          | None -> None
          | Some json -> (
            match cell_of_json cfg id.canonical json with
            | Ok runs -> Some runs
            | Error _ ->
              (* stale or corrupt entry: recompute.  Cache.load counted a
                 hit for the successful parse, but the entry is unusable *)
              Cache.note_evicted ();
              None)
        in
        match from_disk with
        | Some runs -> Ok (runs, Disk)
        | None -> (
          match simulate { req with Request.members = id.canonical } with
          | Error _ as e -> e
          | Ok runs ->
            store runs;
            Ok (runs, Simulated))
      in
      let note_leader leader_tag =
        if leader_tag <> "" then
          Option.iter
            (fun s ->
              Obs.Span.add_attr s "leader_trace_id" (Obs.Span.Str leader_tag))
            run_span
      in
      match
        Gpu_util.Single_flight.run_tagged flights flight_key
          ~tag:(flight_tag ()) compute
      with
      | `Led (Error _ as e) -> e
      | `Joined (leader_tag, (Error _ as e)) ->
        Obs.Metrics.incr m_coalesced;
        note_leader leader_tag;
        e
      | `Led (Ok (runs, source)) ->
        adopt runs;
        note_source (source_label source);
        log_run id (source_label source) runs;
        Ok (orient id runs, source)
      | `Joined (leader_tag, Ok (runs, _)) ->
        Obs.Metrics.incr m_coalesced;
        note_leader leader_tag;
        (* fan-out: this request did no simulation work, but its tenant
           still gets its own shard entry (so the next cold process hits
           disk) and its own memo entry *)
        store runs;
        adopt runs;
        note_source (source_label Coalesced);
        log_run id (source_label Coalesced) runs;
        Ok (orient id runs, Coalesced))
  end

(** The single entry point every caller funnels through: member 0's run,
    which for a {!Request.make} request is the run. *)
let exec req = Result.map (fun (runs, _) -> List.hd runs) (exec_with_source req)

(* --- legacy entry points: flag-free thin wrappers over [exec] -------- *)

let run_uncached cfg w scheme =
  Result.map List.hd (simulate (Request.make cfg w scheme))

(** {!exec}, unwrapped: the one place a preparation failure turns into
    an exception, carrying the full located diagnostic report. *)
let run cfg w scheme =
  match exec (Request.make cfg w scheme) with
  | Ok r -> r
  | Error msg -> failwith msg

(** Two workloads co-resident on one simulated GPU, through the cached
    ladder: (A, B) and (B, A) share one entry, runs in the caller's
    order. *)
let run_co_resident cfg wa scheme_a wb scheme_b =
  Result.map
    (fun (runs, _) -> (List.nth runs 0, List.nth runs 1))
    (Result.bind
       (Request.group cfg [ (wa, scheme_a); (wb, scheme_b) ])
       exec_with_source)

(** Fan a (config, workload, scheme) grid out across a domain pool.
    Results come back element-wise in input order, identical to what the
    same calls would return sequentially (every cell simulates on its
    own fresh device from the same seed).  Duplicate cells are computed
    once.  [jobs <= 1] runs sequentially on the calling domain. *)
let run_many ?(jobs = 1) cells =
  let keyed =
    List.map
      (fun (cfg, (w : Workloads.Workload.t), scheme) ->
        ( memo_key cfg ~workload:w.Workloads.Workload.name
            ~scheme:(scheme_label scheme),
          (cfg, w, scheme) ))
      cells
  in
  let unique =
    List.rev
      (List.fold_left
         (fun acc (key, cell) ->
           if List.mem_assoc key acc then acc else (key, cell) :: acc)
         [] keyed)
  in
  let computed =
    Gpu_util.Pool.parallel_map ~jobs
      (fun (key, (cfg, w, scheme)) -> (key, run cfg w scheme))
      unique
  in
  List.map (fun (key, _) -> List.assoc key computed) keyed

(* ------------------------------------------------------------------ *)
(* Sweeps and BFTT                                                     *)
(* ------------------------------------------------------------------ *)

(* the occupancy of every launch of [w] that can run at all *)
let launch_occupancies cfg (w : Workloads.Workload.t) =
  List.filter_map
    (fun (l : Workloads.Workload.kernel_launch) ->
      let kernel = Workloads.Workload.find_kernel w l.kernel_name in
      Result.to_option
        (occupancy cfg
           (Gpusim.Codegen.compile_kernel kernel)
           (Workloads.Workload.geometry_of l)))
    w.Workloads.Workload.launches

(* 1, 2, 4, ... up to [n] *)
let powers_of_two n =
  let rec from k = if k > n then [] else k :: from (2 * k) in
  from 1

(** Throttling-factor candidates for one workload, ordered from maximum to
    minimum TLP — the x-axis of Fig. 9 and BFTT's search space.  Warp
    splitting first, then TB reduction, mirroring Eq. 9's phases. *)
let candidates cfg w =
  let occs = launch_occupancies cfg w in
  let max_of f = List.fold_left (fun acc occ -> max acc (f occ)) 1 occs in
  let max_warps = max_of (fun o -> o.Catt.Occupancy.warps_per_tb)
  and max_tbs = max_of (fun o -> o.Catt.Occupancy.tbs_per_sm) in
  let warp_part = List.map (fun n -> (n, 0)) (powers_of_two max_warps) in
  (* TB-level factors matter most for single-warp TBs (where no warp
     splitting is possible), so allow a deeper sweep there *)
  let tb_range = if max_warps = 1 then 12 else 3 in
  let tb_part =
    List.init (min tb_range (max_tbs - 1)) (fun i -> (max_warps, i + 1))
  in
  warp_part @ tb_part

let sweep cfg w =
  List.map
    (fun (n, m) ->
      let scheme = if n = 1 && m = 0 then Baseline else Fixed (n, m) in
      ((n, m), run cfg w scheme))
    (candidates cfg w)

(** Per-SM warp-limit candidates for Best-SWL: powers of two up to the
    workload's maximum concurrent warp count. *)
let swl_candidates cfg w =
  powers_of_two
    (List.fold_left
       (fun acc occ -> max acc occ.Catt.Occupancy.concurrent_warps)
       1 (launch_occupancies cfg w))

(* the candidate with the fewest total cycles, the first on ties *)
let fastest = function
  | [] -> invalid_arg "Runner: no candidates"
  | first :: rest ->
    List.fold_left
      (fun ((_, best) as acc) ((_, r) as cand) ->
        if r.total_cycles < best.total_cycles then cand else acc)
      first rest

(** Best-SWL (Rogers et al., MICRO-45; discussed in the paper's
    Section 2.2): the best static scheduler-level warp limit, found by
    exhaustive offline search over per-SM warp counts. *)
let best_swl cfg w =
  fastest (List.map (fun k -> (k, run cfg w (Swl k))) (swl_candidates cfg w))

(** BFTT: the best-performing fixed combination, found by exhaustive
    offline search (paper Section 5: "best-fixed thread throttling"). *)
let bftt cfg w = fastest (sweep cfg w)
