(** Throughput measurement and the performance-regression gate.

    The simulator's fleet-scale cost model is *cells per second*: one cell
    is one uncached (workload, scheme) simulation, the unit every sweep,
    table and figure is built from.  This module times fixed stages of
    grid cells — wall-clock via [Unix.gettimeofday], allocation rates via
    [Gc.quick_stat] — and serializes them to [BENCH_gpusim.json] so that

    - [bench/main.ml --json] emits the committed throughput baseline, and
    - [catt_cli bench --check] re-measures and fails when any stage loses
      more than {!gate_pct} percent of its committed cells/sec.

    Shared here (not in [bench/]) so the CLI gate and the bechamel bench
    measure the exact same stages with the exact same code. *)

module Json = Gpu_util.Json

let gate_pct = 10.0

(* ------------------------------------------------------------------ *)
(* Stage measurement                                                   *)
(* ------------------------------------------------------------------ *)

type stage = {
  name : string;
  cells : int;
  seconds : float;
  cells_per_sec : float;
  minor_words_per_cell : float;
      (** minor-heap allocation per cell — the hot-path overhead the
          allocation-free stepping work drives down *)
  major_words_per_cell : float;
}

(* Minor words [f] allocates on the calling domain.  [quick_stat]'s
   minor_words only advances at collection boundaries; [minor_words ()]
   reads the allocation pointer, so stages too small to trigger a minor
   GC still report a real rate.  It counts this domain only: work fanned
   out to other domains must be counted where it runs. *)
let domain_minor_words f =
  let m0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. m0

(* [f] runs the stage and returns the minor words it allocated, summed
   over every domain that did its work. *)
let measure_counted ~name ~cells f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let minor_words = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let per_cell words = words /. float_of_int (max 1 cells) in
  {
    name;
    cells;
    seconds;
    cells_per_sec = float_of_int cells /. seconds;
    minor_words_per_cell = per_cell minor_words;
    major_words_per_cell =
      per_cell
        (s1.Gc.major_words -. s0.Gc.major_words
        -. (s1.Gc.promoted_words -. s0.Gc.promoted_words));
  }

(** A stage that runs on the calling domain. *)
let measure ~name ~cells f =
  measure_counted ~name ~cells (fun () -> domain_minor_words f)

let run_cell cfg w scheme =
  match Runner.run_uncached cfg w scheme with
  | Ok _ -> ()
  | Error msg -> failwith msg

let run_grid cfg workloads scheme =
  List.iter (fun w -> run_cell cfg w scheme) workloads

let gated_schemes =
  [
    ("grid/baseline", Runner.Baseline);
    ("grid/catt", Runner.Catt);
    ("grid/dynamic", Runner.Dynamic);
    (* the interference-aware hardware schemes ride the hottest simulator
       paths (a monitor call per L1D transaction / shadow-tag scans per
       miss), so their grid throughput is gated like the others' *)
    ("grid/ciao", Runner.Ciao);
    ("grid/ata", Runner.Ata);
  ]

let measure_gated ?(workloads = Workloads.Registry.all) (name, scheme) =
  let cfg = Configs.max_l1d () in
  measure ~name ~cells:(List.length workloads) (fun () ->
      run_grid cfg workloads scheme)

(** The gated stages.  [workloads] defaults to the whole registry — the
    full-grid setting the acceptance numbers quote; the smoke test passes
    a 2-element subset so [dune runtest] stays fast. *)
let stages ?workloads () = List.map (measure_gated ?workloads) gated_schemes

(** Re-run one gated stage by name ([None] for an unknown stage). *)
let remeasure_gated ?workloads name =
  Option.map
    (fun scheme -> measure_gated ?workloads (name, scheme))
    (List.assoc_opt name gated_schemes)

(* ------------------------------------------------------------------ *)
(* Pool composition                                                    *)
(* ------------------------------------------------------------------ *)

(** The same cells fanned across a domain pool, one stage per jobs
    setting.  Informational, not gated: domain scaling depends on the
    host's core count, and on a single-core box every jobs > 1 setting
    only adds minor-GC synchronization. *)
let pool_stages ?(workloads = Workloads.Registry.all) ?(jobs_list = [ 1; 0 ]) ()
    =
  let cfg = Configs.max_l1d () in
  let n = List.length workloads in
  List.map
    (fun jobs ->
      let resolved =
        if jobs <= 0 then Domain.recommended_domain_count () else jobs
      in
      (* each cell's allocation is read on the worker domain that ran it *)
      measure_counted
        ~name:(Printf.sprintf "pool/jobs-%d" resolved)
        ~cells:n
        (fun () ->
          List.fold_left ( +. ) 0.
            (Gpu_util.Pool.parallel_map ~jobs
               (fun w ->
                 domain_minor_words (fun () -> run_cell cfg w Runner.Baseline))
               workloads)))
    (List.sort_uniq compare
       (List.map
          (fun j -> if j <= 0 then Domain.recommended_domain_count () else j)
          jobs_list))

(* ------------------------------------------------------------------ *)
(* Profiler overhead (A/A)                                             *)
(* ------------------------------------------------------------------ *)

type profiler_overhead = {
  disabled_ms : float;
  disabled_ab_pct : float;
      (** two interleaved batches of the *disabled* configuration; their
          median delta bounds the cost of the [None]-guarded hooks plus
          measurement noise *)
  enabled_ms : float;
  enabled_pct : float;
  disabled_within_5pct : bool;
}

let overhead_kernel_src =
  {|
__global__ void bench_div(float *A, float *x, float *tmp) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < 512) {
    for (int j = 0; j < 256; j++) {
      tmp[i] += A[i * 256 + j] * x[j];
    }
  }
}
|}

let simulate_overhead_kernel ?profile cfg =
  let kernel = Minicuda.Parser.parse_kernel overhead_kernel_src in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpusim.Gpu.create cfg in
  let nx = 512 and ny = 256 in
  Gpusim.Gpu.upload dev "A"
    (Array.init (nx * ny) (fun i -> float_of_int (i land 7)));
  Gpusim.Gpu.upload dev "x" (Array.init ny (fun i -> float_of_int (i land 3)));
  Gpusim.Gpu.alloc dev "tmp" nx;
  let launch =
    Gpusim.Gpu.default_launch ?profile ~prog ~grid:(2, 1) ~block:(256, 1)
      [ Gpusim.Gpu.Arr "A"; Gpusim.Gpu.Arr "x"; Gpusim.Gpu.Arr "tmp" ]
  in
  ignore (Gpusim.Gpu.launch dev launch)

let profiler_overhead ?(reps = 7) () =
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let a = Array.make reps 0.
  and b = Array.make reps 0.
  and en = Array.make reps 0. in
  simulate_overhead_kernel cfg (* warm-up *);
  for i = 0 to reps - 1 do
    a.(i) <- time (fun () -> simulate_overhead_kernel cfg);
    b.(i) <- time (fun () -> simulate_overhead_kernel cfg);
    en.(i) <-
      time (fun () ->
          simulate_overhead_kernel ~profile:(Profile.Collector.create ()) cfg)
  done;
  let med = Gpu_util.Stats.median in
  let ma = med a and mb = med b and me = med en in
  let disabled_ab_pct = 100. *. (abs_float (ma -. mb) /. min ma mb) in
  {
    disabled_ms = 1000. *. min ma mb;
    disabled_ab_pct;
    enabled_ms = 1000. *. me;
    enabled_pct = 100. *. ((me -. min ma mb) /. min ma mb);
    disabled_within_5pct = disabled_ab_pct <= 5.;
  }

(* ------------------------------------------------------------------ *)
(* Obs (span tracing) overhead (A/A)                                   *)
(* ------------------------------------------------------------------ *)

(** Same protocol as {!profiler_overhead}, for the obs subsystem: two
    interleaved batches with [Obs.Span.enabled = false] (their median
    delta bounds the cost of the [ref]-read guards plus noise — the
    ≤5% gate the tentpole promises for the disabled path) against one
    batch with span tracing on.  The span sink is drained afterwards so
    benchmarking leaves no trace state behind. *)
let obs_overhead ?(reps = 7) () =
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let a = Array.make reps 0.
  and b = Array.make reps 0.
  and en = Array.make reps 0. in
  let was_enabled = !Obs.Span.enabled in
  Obs.Span.enabled := false;
  simulate_overhead_kernel cfg (* warm-up *);
  for i = 0 to reps - 1 do
    a.(i) <- time (fun () -> simulate_overhead_kernel cfg);
    b.(i) <- time (fun () -> simulate_overhead_kernel cfg);
    Obs.Span.enabled := true;
    en.(i) <- time (fun () -> simulate_overhead_kernel cfg);
    Obs.Span.enabled := false;
    Obs.Span.reset ()
  done;
  Obs.Span.enabled := was_enabled;
  let med = Gpu_util.Stats.median in
  let ma = med a and mb = med b and me = med en in
  let disabled_ab_pct = 100. *. (abs_float (ma -. mb) /. min ma mb) in
  {
    disabled_ms = 1000. *. min ma mb;
    disabled_ab_pct;
    enabled_ms = 1000. *. me;
    enabled_pct = 100. *. ((me -. min ma mb) /. min ma mb);
    disabled_within_5pct = disabled_ab_pct <= 5.;
  }

(* ------------------------------------------------------------------ *)
(* Report + JSON                                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  jobs : int;
  gated : stage list;
  pool : stage list;
  profiler : profiler_overhead;
  obs : profiler_overhead;  (** span tracing off (A/A) vs on *)
}

(** [extra] is thunks for gated stages that live *above* this library in
    the dependency order (e.g. [Serve.Bench.stage]) — callers compose
    them in so the gate and the committed baseline still cover them. *)
let collect ?workloads ?(extra = []) ?(jobs = 0) () =
  {
    jobs = (if jobs <= 0 then Domain.recommended_domain_count () else jobs);
    gated = stages ?workloads () @ List.map (fun f -> f ()) extra;
    pool = pool_stages ?workloads ();
    profiler = profiler_overhead ();
    obs = obs_overhead ();
  }

let stage_to_json s =
  Json.Obj
    [
      ("stage", Json.String s.name);
      ("cells", Json.Int s.cells);
      ("seconds", Json.Float s.seconds);
      ("cells_per_sec", Json.Float s.cells_per_sec);
      ("minor_words_per_cell", Json.Float s.minor_words_per_cell);
      ("major_words_per_cell", Json.Float s.major_words_per_cell);
    ]

let report_to_json ?pre_overhaul r =
  Json.Obj
    ([
       ("version", Json.Int 1);
       ("jobs", Json.Int r.jobs);
       ("gate_pct", Json.Float gate_pct);
       ("stages", Json.List (List.map stage_to_json r.gated));
       ("pool", Json.List (List.map stage_to_json r.pool));
       ( "profiler",
         Json.Obj
           [
             ("disabled_ms", Json.Float r.profiler.disabled_ms);
             ("disabled_ab_pct", Json.Float r.profiler.disabled_ab_pct);
             ("enabled_ms", Json.Float r.profiler.enabled_ms);
             ("enabled_pct", Json.Float r.profiler.enabled_pct);
             ( "disabled_within_5pct",
               Json.Bool r.profiler.disabled_within_5pct );
           ] );
       ( "obs",
         Json.Obj
           [
             ("disabled_ms", Json.Float r.obs.disabled_ms);
             ("disabled_ab_pct", Json.Float r.obs.disabled_ab_pct);
             ("enabled_ms", Json.Float r.obs.enabled_ms);
             ("enabled_pct", Json.Float r.obs.enabled_pct);
             ("disabled_within_5pct", Json.Bool r.obs.disabled_within_5pct);
           ] );
     ]
    @ match pre_overhaul with Some j -> [ ("pre_overhaul", j) ] | None -> [])

let stage_of_json j =
  {
    name = Json.to_str (Json.member "stage" j);
    cells = Json.to_int (Json.member "cells" j);
    seconds = Json.to_float (Json.member "seconds" j);
    cells_per_sec = Json.to_float (Json.member "cells_per_sec" j);
    minor_words_per_cell = Json.to_float (Json.member "minor_words_per_cell" j);
    major_words_per_cell = Json.to_float (Json.member "major_words_per_cell" j);
  }

(** The committed stages the gate compares against. *)
let baseline_of_json json =
  Json.decode
    (fun j -> List.map stage_of_json (Json.to_list (Json.member "stages" j)))
    json

(** When rewriting the committed file, carry the informational
    [pre_overhaul] section of an existing copy forward so regeneration
    never loses the before/after record. *)
let preserved_pre_overhaul path =
  if not (Sys.file_exists path) then None
  else
    match
      Json.of_string (In_channel.with_open_bin path In_channel.input_all)
    with
    | Ok j -> Json.member_opt "pre_overhaul" j
    | Error _ -> None

let write_json path r =
  let pre_overhaul = preserved_pre_overhaul path in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~pretty:true (report_to_json ?pre_overhaul r));
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = {
  stage_name : string;
  committed : float;  (** committed cells/sec *)
  measured : float;
  delta_pct : float;  (** positive = faster than committed *)
  ok : bool;
}

let verdict ~stage_name ~committed ~measured =
  let delta_pct = 100. *. ((measured -. committed) /. committed) in
  { stage_name; committed; measured; delta_pct; ok = delta_pct >= -.gate_pct }

let check ~committed ~measured =
  List.filter_map
    (fun (c : stage) ->
      match List.find_opt (fun m -> m.name = c.name) measured with
      | None -> None  (* stage removed: nothing to gate *)
      | Some m ->
        Some
          (verdict ~stage_name:c.name ~committed:c.cells_per_sec
             ~measured:m.cells_per_sec))
    committed

(** Wall-clock noise on a busy or single-core host routinely exceeds
    {!gate_pct} between two runs of the same binary.  A stage that trips
    the gate is therefore re-measured up to [retries] more times and
    judged on its best observed throughput: scheduling noise only ever
    makes a stage look slower than it is, so best-of-N converges on the
    true rate, while a genuine regression fails every attempt.
    [remeasure] returns the fresh measurement for a stage name, or [None]
    when it cannot be re-run (the verdict then stands). *)
let check_with_retry ?(retries = 2) ~committed ~measured ~remeasure () =
  List.map
    (fun v ->
      let rec retry v attempts =
        if v.ok || attempts = 0 then v
        else
          match remeasure v.stage_name with
          | None -> v
          | Some (s : stage) ->
            let v =
              if s.cells_per_sec > v.measured then
                verdict ~stage_name:v.stage_name ~committed:v.committed
                  ~measured:s.cells_per_sec
              else v
            in
            retry v (attempts - 1)
      in
      retry v retries)
    (check ~committed ~measured)

let render_verdicts vs =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %-16s %8.2f -> %8.2f cells/sec  (%+.1f%%)  %s\n"
           v.stage_name v.committed v.measured v.delta_pct
           (if v.ok then "ok" else "REGRESSION")))
    vs;
  Buffer.contents buf
