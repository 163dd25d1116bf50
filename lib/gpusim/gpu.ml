exception Launch_error of string

let launch_error fmt = Printf.ksprintf (fun msg -> raise (Launch_error msg)) fmt

type device = {
  cfg : Config.t;
  memory : (string, float array) Hashtbl.t;
  l2 : Cache.t;
}

let create cfg =
  {
    cfg;
    memory = Hashtbl.create 16;
    l2 =
      Cache.create ~bytes:cfg.Config.l2_bytes ~assoc:cfg.Config.l2_assoc
        ~line_bytes:cfg.Config.line_bytes
        ~mshrs:(cfg.Config.l1d_mshrs * cfg.Config.num_sms) ();
  }

(** A second device that shares this one's L2 (and config) but owns a
    fresh global-memory namespace, so a co-resident workload's array
    names cannot collide with the first one's.  Made for {!launch_group};
    either device works standalone too (the shared L2 then simply stays
    warm across their launches, like two streams on one GPU). *)
let create_shared_l2 dev =
  { cfg = dev.cfg; memory = Hashtbl.create 16; l2 = dev.l2 }

let alloc dev name len =
  if Hashtbl.mem dev.memory name then launch_error "array %s already allocated" name;
  if len <= 0 then launch_error "array %s: non-positive length %d" name len;
  Hashtbl.replace dev.memory name (Array.make len 0.)

let upload dev name data = Hashtbl.replace dev.memory name (Array.copy data)

let get dev name =
  match Hashtbl.find_opt dev.memory name with
  | Some arr -> arr
  | None -> launch_error "no device array named %s" name

let arrays dev =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name data acc -> (name, data) :: acc) dev.memory [])

type arg = Arr of string | Scalar of float

type launch = {
  prog : Bytecode.program;
  grid : int * int;
  block : int * int;
  args : arg list;
  smem_carveout : int option;
  sched : Sm.sched;
  trace : bool;
  runtime_throttle :
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ];
      (** run-time throttling baselines (Section 2.2 ablations): the
          DYNCTA-style TB-cap hill climber, the CCWS-style lost-locality
          warp scheduler, the CIAO interference-aware bypass/throttle
          monitor, or the ATA-Cache aggregated-tag-array L1D *)
  bypass_arrays : string list;
      (** arrays whose loads skip the L1D — the cache-bypassing alternative
          (Section 2.2) used by the ablation benches *)
  profile : Profile.Collector.t option;
      (** opt-in observability sink; the same collector may be passed to
          several launches and aggregates across them *)
}

let default_launch ?smem_carveout ?(sched = Sm.Gto) ?(trace = false)
    ?(runtime_throttle = `None) ?(bypass_arrays = []) ?profile ~prog ~grid
    ~block args =
  {
    prog;
    grid;
    block;
    args;
    smem_carveout;
    sched;
    trace;
    runtime_throttle;
    bypass_arrays;
    profile;
  }

let geometry l =
  let gx, gy = l.grid and bx, by = l.block in
  if gx <= 0 || gy <= 0 || bx <= 0 || by <= 0 then
    launch_error "kernel %s: degenerate launch geometry" l.prog.Bytecode.name;
  (gx, gy, bx, by)

(* Without an explicit carveout, pick the one the CUDA runtime would: the
   smallest option that still sustains the kernel's maximum occupancy
   (larger options would only shrink the L1D for nothing). *)
let auto_carveout dev l ~tb_threads =
  let static = l.prog.Bytecode.shared_bytes in
  let options = List.sort compare dev.cfg.Config.smem_carveout_options in
  let feasible = List.filter (fun o -> o >= static) options in
  match feasible with
  | [] ->
    launch_error "kernel %s: shared usage %dB exceeds the largest carveout"
      l.prog.Bytecode.name static
  | _ ->
    let tbs_at carveout =
      Cta_scheduler.max_tbs_per_sm dev.cfg ~tb_threads
        ~num_regs:l.prog.Bytecode.num_regs ~shared_bytes:static
        ~smem_carveout:carveout
    in
    let best_tbs = List.fold_left (fun acc o -> max acc (tbs_at o)) 0 feasible in
    List.find (fun o -> tbs_at o >= best_tbs) feasible

let resolve_carveout dev l =
  let static = l.prog.Bytecode.shared_bytes in
  match l.smem_carveout with
  | Some bytes ->
    if not (List.mem bytes dev.cfg.Config.smem_carveout_options) then
      launch_error "smem carveout %d is not a configurable option" bytes;
    if bytes < static then
      launch_error "smem carveout %d < static shared usage %d" bytes static;
    bytes
  | None ->
    let _, _, bx, by = geometry l in
    auto_carveout dev l ~tb_threads:(bx * by)

(* Bind launch arguments: build the id-indexed global array table with
   line-aligned, non-overlapping base addresses, and the scalar register
   preload list.  [base] is where the first array lands — co-resident
   members bind at disjoint bases, so their working sets occupy disjoint
   cache-visible ranges. *)
let bind_args_from dev ~base l =
  let prog = l.prog in
  let expected = List.length prog.Bytecode.args in
  let got = List.length l.args in
  if expected <> got then
    launch_error "kernel %s expects %d arguments, got %d" prog.Bytecode.name
      expected got;
  let num_ids = List.length prog.Bytecode.array_ids in
  let arrays = Array.make num_ids None in
  let scalars = ref [] in
  let next_base = ref base in
  let align n =
    let line = dev.cfg.Config.line_bytes in
    (n + line - 1) / line * line
  in
  List.iter2
    (fun binding arg ->
      match (binding, arg) with
      | Bytecode.Array_arg param, Arr name ->
        let data = get dev name in
        let id = List.assoc param prog.Bytecode.array_ids in
        let base = !next_base in
        next_base := align (base + (Array.length data * 4)) + dev.cfg.Config.line_bytes;
        arrays.(id) <- Some { Sm.data; base }
      | Bytecode.Scalar_arg param, Scalar value ->
        let reg = List.assoc param prog.Bytecode.scalar_param_regs in
        scalars := (reg, value) :: !scalars
      | Bytecode.Array_arg param, Scalar _ ->
        launch_error "argument %s: expected an array, got a scalar" param
      | Bytecode.Scalar_arg param, Arr _ ->
        launch_error "argument %s: expected a scalar, got an array" param)
    prog.Bytecode.args l.args;
  (arrays, !scalars, !next_base)

(* The exclusive top address [bind_args_from] would reach — layout
   planning only, nothing is bound.  Lets callers place a later member's
   working set above every launch of the one before it. *)
let args_top dev ~base l =
  let _, _, top = bind_args_from dev ~base l in
  top

let bypass_flags l =
  let num_ids = List.length l.prog.Bytecode.array_ids in
  let flags = Array.make num_ids false in
  List.iter
    (fun name ->
      match List.assoc_opt name l.prog.Bytecode.array_ids with
      | Some id -> flags.(id) <- true
      | None ->
        launch_error "bypass_arrays: kernel %s has no array %s"
          l.prog.Bytecode.name name)
    l.bypass_arrays;
  flags

(* process-wide launch accounting (always on; see Obs.Metrics) *)
let m_launches = Obs.Metrics.counter "gpu.launches"
let m_sim_cycles = Obs.Metrics.counter "gpu.sim_cycles"

type member = { dev : device; launch : launch; base : int }

(* The SM context a member runs on.  Runtime throttles only ever reach a
   group of one (see [check_group]), so [?l1] — a later member sharing
   the first member's L1D — only meets the plain [`None] path. *)
let create_sm ?l1 m job i ~l1_bytes ~max_tbs =
  let cfg = m.dev.cfg and l = m.launch in
  match l.runtime_throttle with
  | `None -> Sm.create ?l1 job i ~l1_bytes
  | `Dyncta ->
    Sm.create
      ~dyn:(Dynamic_throttle.create ~init_cap:max_tbs ())
      job i ~l1_bytes
  | `Ccws ->
    Sm.create
      ~ccws:(Ccws.create ~max_warps:(max_tbs * job.Sm.warps_per_tb) ())
      job i ~l1_bytes
  | `Daws ->
    Sm.create
      ~daws:
        (Daws.create
           ~l1_lines:(l1_bytes / cfg.Config.line_bytes)
           ~extents:(Bytecode.loop_extents l.prog))
      job i ~l1_bytes
  | `Swl limit ->
    if limit < 1 then launch_error "static warp limit must be >= 1";
    Sm.create ~swl:limit job i ~l1_bytes
  | `Ciao -> Sm.create ~ciao:(Interference.create ()) job i ~l1_bytes
  | `Ata ->
    (* the same L1D geometry plus two shadow tag-only ways per set *)
    Sm.create
      ~l1:
        (Cache.create ~ata_ways:2 ~bytes:l1_bytes ~assoc:cfg.Config.l1d_assoc
           ~line_bytes:cfg.Config.line_bytes ~mshrs:cfg.Config.l1d_mshrs ())
      job i ~l1_bytes

(* A co-resident group needs one memory namespace per member on one L2
   (devices from [create_shared_l2], which also share the config), and
   compile-time schemes only: runtime controllers, traces and profiles
   carry per-SM state that cannot be attributed to one member. *)
let check_group = function
  | [] -> launch_error "launch_group: no members"
  | [ _ ] -> ()
  | first :: _ as members ->
    let rec check = function
      | [] -> ()
      | m :: rest ->
        if
          m.dev.l2 != first.dev.l2
          || List.exists (fun m' -> m'.dev == m.dev) rest
        then
          launch_error
            "launch_group: members need separate devices sharing one L2 \
             (create_shared_l2)";
        if
          m.launch.runtime_throttle <> `None
          || m.launch.trace
          || Option.is_some m.launch.profile
        then
          launch_error
            "launch_group: kernel %s uses runtime throttling, tracing or \
             profiling; co-resident groups support none of them"
            m.launch.prog.Bytecode.name;
        check rest
    in
    check members

let launch_group members =
  check_group members;
  let ms = Array.of_list members in
  let n = Array.length ms in
  let cfg = ms.(0).dev.cfg in
  let joined f = String.concat "+" (List.map (fun m -> f m.launch) members) in
  let dims (x, y) = Printf.sprintf "%dx%d" x y in
  Obs.Span.with_span "gpu.launch"
    ~attrs:
      [
        ("kernel", Obs.Span.Str (joined (fun l -> l.prog.Bytecode.name)));
        ("grid", Obs.Span.Str (joined (fun l -> dims l.grid)));
        ("block", Obs.Span.Str (joined (fun l -> dims l.block)));
      ]
  @@ fun launch_span ->
  (* the cycle clock restarts per launch; the warm L2 must not carry
     in-flight fill times from the previous kernel *)
  Cache.settle ms.(0).dev.l2;
  let geos = Array.map (fun m -> geometry m.launch) ms in
  let carveouts = Array.map (fun m -> resolve_carveout m.dev m.launch) ms in
  (* each member keeps its own shared-memory carveout; the rest of the
     on-chip bytes is the one L1D the members contend for *)
  let l1_bytes = cfg.Config.onchip_bytes - Array.fold_left ( + ) 0 carveouts in
  if l1_bytes <= 0 then
    launch_error "launch_group: carveouts leave no L1D of the %dB on-chip memory"
      cfg.Config.onchip_bytes;
  let dram_free = ref 0 in
  let num_sms = cfg.Config.num_sms in
  let max_tbs = Array.make n 0 in
  let sms = Array.make n [||] in
  let outputs =
    Array.mapi
      (fun k m ->
        let l = m.launch in
        let gx, gy, bx, by = geos.(k) in
        let tb_threads = bx * by in
        (* registers, warp slots and TB slots split evenly between the
           members (Eq. 3 itself for a group of one) *)
        max_tbs.(k) <-
          Cta_scheduler.partitioned_max_tbs_per_sm cfg ~parts:n ~tb_threads
            ~num_regs:l.prog.Bytecode.num_regs
            ~shared_bytes:l.prog.Bytecode.shared_bytes
            ~smem_carveout:carveouts.(k);
        if max_tbs.(k) <= 0 then
          launch_error
            "kernel %s: zero occupancy (TB needs more resources than its 1/%d \
             SM partition has)"
            l.prog.Bytecode.name n;
        let arrays, scalar_values, _ = bind_args_from m.dev ~base:m.base l in
        let stats = Stats.create () in
        let trace =
          if l.trace then Trace.create ~cap:cfg.Config.trace_cap ~sm:0 ()
          else Trace.disabled
        in
        let job =
          {
            Sm.cfg;
            prog = l.prog;
            arrays;
            shared_specs =
              List.map
                (fun (_, id, size) -> (id, size))
                l.prog.Bytecode.shared_arrays;
            scalar_values;
            grid_x = gx;
            grid_y = gy;
            block_x = bx;
            block_y = by;
            tb_threads;
            warps_per_tb = Cta_scheduler.warps_per_tb cfg ~tb_threads;
            sched = l.sched;
            stats;
            trace;
            l2 = m.dev.l2;
            dram_free;
            bypass = bypass_flags l;
            prof = l.profile;
          }
        in
        sms.(k) <-
          Array.init num_sms (fun i ->
              let l1 = if k = 0 then None else Some sms.(0).(i).Sm.l1 in
              create_sm ?l1 m job i ~l1_bytes ~max_tbs:max_tbs.(k));
        Option.iter
          (fun p ->
            let arrays_meta =
              List.filter_map
                (fun (name, id) ->
                  match arrays.(id) with
                  | Some ga ->
                    Some
                      {
                        Profile.Collector.name;
                        id;
                        base = ga.Sm.base;
                        bytes = Array.length ga.Sm.data * 4;
                      }
                  | None -> None)
                l.prog.Bytecode.array_ids
            in
            Profile.Collector.init p ~num_sms
              ~l1_sets:(Cache.sets sms.(k).(0).Sm.l1)
              ~line_bytes:cfg.Config.line_bytes ~arrays:arrays_meta
              ~locs:l.prog.Bytecode.src_locs)
          l.profile;
        (stats, trace))
      ms
  in
  let totals = Array.map (fun (gx, gy, _, _) -> gx * gy) geos in
  let next_tb = Array.make n 0 in
  (* initial distribution, member by member: one TB per SM round-robin
     until capacity *)
  for k = 0 to n - 1 do
    let continue_rr = ref true in
    while !continue_rr && next_tb.(k) < totals.(k) do
      continue_rr := false;
      Array.iter
        (fun sm ->
          if sm.Sm.resident_tbs < max_tbs.(k) && next_tb.(k) < totals.(k)
          then begin
            Sm.launch_tb sm next_tb.(k);
            next_tb.(k) <- next_tb.(k) + 1;
            continue_rr := true
          end)
        sms.(k)
    done
  done;
  (* event loop over the n x num_sms contexts, member-major: always step
     the context whose next issue is earliest, first index on ties (so
     ties break toward member 0).  Each context's next-event time is
     cached and recomputed only after that context steps (and is
     refilled): stepping one context cannot change another's ready times
     — warps, barriers and throttle controllers are all per-context
     state, and the shared L1D/L2/DRAM only affect transaction times
     computed at issue.  The argmin scan is a flat int-array walk. *)
  let ctxs = Array.concat (Array.to_list sms) in
  let n_ctx = Array.length ctxs in
  let member_of = Array.init n_ctx (fun c -> c / num_sms) in
  let next_at = Array.make n_ctx max_int in
  let refresh c =
    let sm = ctxs.(c) in
    if Sm.has_warps sm then begin
      let t = Sm.next_event sm in
      if t = max_int then
        Sm.sim_error "kernel %s: barrier deadlock on SM %d"
          sm.Sm.job.Sm.prog.Bytecode.name sm.Sm.id;
      next_at.(c) <- t  (* already clamped to the SM's clock *)
    end
    else next_at.(c) <- max_int  (* drained *)
  in
  for c = 0 to n_ctx - 1 do
    refresh c
  done;
  let running = ref true in
  while !running do
    let best = ref (-1) in
    let best_at = ref max_int in
    for c = 0 to n_ctx - 1 do
      if next_at.(c) < !best_at then begin
        best := c;
        best_at := next_at.(c)
      end
    done;
    if !best < 0 then running := false  (* all contexts drained *)
    else begin
      let sm = ctxs.(!best) in
      (* the argmin already knows this context's next event time:
         stepping at it skips a second scheduler scan inside [Sm.step] *)
      ignore (Sm.step_at sm ~t:!best_at);
      let k = member_of.(!best) in
      while sm.Sm.resident_tbs < max_tbs.(k) && next_tb.(k) < totals.(k) do
        Sm.launch_tb sm next_tb.(k);
        next_tb.(k) <- next_tb.(k) + 1
      done;
      refresh !best
    end
  done;
  let cycles = ref 0 in
  Array.iteri
    (fun k m ->
      assert (next_tb.(k) = totals.(k));
      let stats, _ = outputs.(k) in
      stats.Stats.cycles <-
        Array.fold_left (fun acc sm -> max acc sm.Sm.now) 0 sms.(k);
      cycles := !cycles + stats.Stats.cycles;
      Option.iter
        (fun p ->
          Array.iter
            (fun sm ->
              Profile.Collector.add_sm_cycles p ~sm:sm.Sm.id ~cycles:sm.Sm.now)
            sms.(k))
        m.launch.profile)
    ms;
  Obs.Metrics.add m_launches n;
  Obs.Metrics.add m_sim_cycles !cycles;
  Option.iter
    (fun s -> Obs.Span.add_attr s "cycles" (Obs.Span.Int !cycles))
    launch_span;
  Array.to_list outputs

let launch dev l =
  List.hd (launch_group [ { dev; launch = l; base = dev.cfg.Config.line_bytes } ])
