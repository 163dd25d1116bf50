(** Differential harness: profiling must be observationally pure.

    Random mini-CUDA kernels (three contention shapes x random geometry x
    random scheduler/throttle/bypass configuration) run twice on fresh
    devices — once bare, once with a {!Profile.Collector} attached.  The
    final {!Gpusim.Stats} (every counter, serialized) and the full final
    device memory must be bit-identical: the profiler hooks sit on the
    simulator's hottest paths and the throttling controllers (CCWS pools,
    DYNCTA epochs) are stateful, so any accidental state read from a hook
    would show up here.  The profiled run additionally must satisfy the
    cycle-accounting identity. *)

module Gpu = Gpusim.Gpu
module Config = Gpusim.Config
module Stats = Gpusim.Stats
module Json = Gpu_util.Json

type case = {
  label : string;
  src : string;
  arrays : (string * int) list;  (* every device array, inputs and outputs *)
  args : Gpu.arg list;
  grid : int * int;
  block : int * int;
  bypassable : string;  (* a global array eligible for --bypass runs *)
}

let divergent_case ?(blocks = 2) ~nx ~ny () =
  {
    label = Printf.sprintf "divergent-%dx%d" nx ny;
    src =
      Printf.sprintf
        "__global__ void k(float *A, float *x, float *tmp) {\n\
         int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
         if (i < %d) {\n\
         for (int j = 0; j < %d; j++) {\n\
         tmp[i] += A[i * %d + j] * x[j];\n\
         }\n\
         }\n\
         }" nx ny ny;
    arrays = [ ("A", nx * ny); ("x", ny); ("tmp", nx) ];
    args = [ Gpu.Arr "A"; Gpu.Arr "x"; Gpu.Arr "tmp" ];
    grid = (blocks, 1);
    block = (64, 1);
    bypassable = "A";
  }

let barrier_case ~blocks =
  {
    label = Printf.sprintf "barrier-shared-%d" blocks;
    src =
      "__global__ void k(float *a, float *out) {\n\
       __shared__ float buf[64];\n\
       int t = threadIdx.x;\n\
       int i = blockIdx.x * blockDim.x + t;\n\
       buf[t] = a[i];\n\
       __syncthreads();\n\
       out[i] = buf[63 - t] + buf[t];\n\
       }";
    arrays = [ ("a", blocks * 64); ("out", blocks * 64) ];
    args = [ Gpu.Arr "a"; Gpu.Arr "out" ];
    grid = (blocks, 1);
    block = (64, 1);
    bypassable = "a";
  }

let branchy_case ?(blocks = 2) ~cut ~trips () =
  let threads = blocks * 64 in
  let alen = max threads (trips * 32) in
  {
    label = Printf.sprintf "branchy-%d-%d" cut trips;
    src =
      Printf.sprintf
        "__global__ void k(float *a, float *out) {\n\
         int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
         if (i < %d) {\n\
         for (int j = 0; j < %d; j++) {\n\
         if (j * 2 < i) { out[i] += a[j * 32]; } else { out[i] += a[i]; }\n\
         }\n\
         } else {\n\
         out[i] = a[i];\n\
         }\n\
         }" cut trips;
    arrays = [ ("a", alen); ("out", threads) ];
    args = [ Gpu.Arr "a"; Gpu.Arr "out" ];
    grid = (blocks, 1);
    block = (64, 1);
    bypassable = "a";
  }

let init_value i = float_of_int ((i * 7 + 3) land 31)

(* small on-chip memory so random kernels actually contend in the L1D *)
let cfg = Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) ()

let run_case ?(timeline = false) case ~sched ~throttle ~bypass ~profile =
  let kernel = Minicuda.Parser.parse_kernel case.src in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpu.create cfg in
  List.iter
    (fun (name, len) -> Gpu.upload dev name (Array.init len init_value))
    case.arrays;
  let collector = if profile then Some (Profile.Collector.create ()) else None in
  (match collector with
  | Some c when timeline -> Profile.Collector.enable_timeline c
  | _ -> ());
  let launch =
    Gpu.default_launch ~sched ~runtime_throttle:throttle
      ~bypass_arrays:(if bypass then [ case.bypassable ] else [])
      ?profile:collector ~prog ~grid:case.grid ~block:case.block case.args
  in
  let stats, _ = Gpu.launch dev launch in
  let memory =
    List.map (fun (name, _) -> (name, Array.copy (Gpu.get dev name))) case.arrays
  in
  (Json.to_string (Stats.to_json stats), memory, collector)

let gen =
  QCheck.Gen.(
    let shape =
      oneof
        [
          map2
            (fun nx ny -> divergent_case ~nx ~ny ())
            (oneofl [ 64; 128 ])
            (oneofl [ 16; 32; 64 ]);
          map (fun blocks -> barrier_case ~blocks) (oneofl [ 1; 2; 3 ]);
          map2
            (fun cut trips -> branchy_case ~cut ~trips ())
            (oneofl [ 0; 37; 128 ])
            (oneofl [ 4; 16 ]);
        ]
    in
    let sched = oneofl [ Gpusim.Sm.Gto; Gpusim.Sm.Lrr ] in
    let throttle =
      oneofl [ `None; `Dyncta; `Ccws; `Daws; `Swl 2; `Ciao; `Ata ]
    in
    quad shape sched throttle bool)

let print_cfg (case, sched, throttle, bypass) =
  Printf.sprintf "%s sched=%s throttle=%s bypass=%b" case.label
    (match sched with Gpusim.Sm.Gto -> "gto" | Gpusim.Sm.Lrr -> "lrr")
    (match throttle with
    | `None -> "none"
    | `Dyncta -> "dyncta"
    | `Ccws -> "ccws"
    | `Daws -> "daws"
    | `Swl k -> Printf.sprintf "swl%d" k
    | `Ciao -> "ciao"
    | `Ata -> "ata")
    bypass

let arbitrary = QCheck.make ~print:print_cfg gen

let prop_profiling_pure =
  QCheck.Test.make ~name:"profiled run == unprofiled run (stats + memory)"
    ~count:40 arbitrary (fun (case, sched, throttle, bypass) ->
      let stats_bare, mem_bare, _ =
        run_case case ~sched ~throttle ~bypass ~profile:false
      in
      let stats_prof, mem_prof, collector =
        run_case case ~sched ~throttle ~bypass ~profile:true
      in
      if stats_bare <> stats_prof then
        QCheck.Test.fail_reportf "stats diverged:\nbare: %s\nprof: %s"
          stats_bare stats_prof;
      List.iter2
        (fun (name, a) (_, b) ->
          if a <> b then
            QCheck.Test.fail_reportf "final memory of %s diverged" name)
        mem_bare mem_prof;
      (match collector with
      | None -> QCheck.Test.fail_report "profiled run returned no collector"
      | Some c -> (
        match Profile.Collector.check_identity c with
        | Ok () -> ()
        | Error msg ->
          QCheck.Test.fail_reportf "accounting identity violated: %s" msg));
      true)

(* span tracing and the opt-in per-SM timeline must be observationally
   pure too: a fully instrumented run (spans enabled, timeline attached)
   produces bit-identical stats and final memory to a bare run *)
let prop_tracing_pure =
  QCheck.Test.make ~name:"traced run == untraced run (stats + memory)"
    ~count:20 arbitrary (fun (case, sched, throttle, bypass) ->
      let stats_bare, mem_bare, _ =
        run_case case ~sched ~throttle ~bypass ~profile:false
      in
      let was = !Obs.Span.enabled in
      Obs.Span.enabled := true;
      let stats_traced, mem_traced, collector =
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.enabled := was;
            Obs.Span.reset ())
          (fun () ->
            run_case ~timeline:true case ~sched ~throttle ~bypass ~profile:true)
      in
      if stats_bare <> stats_traced then
        QCheck.Test.fail_reportf
          "stats diverged under tracing:\nbare:   %s\ntraced: %s" stats_bare
          stats_traced;
      List.iter2
        (fun (name, a) (_, b) ->
          if a <> b then
            QCheck.Test.fail_reportf "final memory of %s diverged under tracing"
              name)
        mem_bare mem_traced;
      (match collector with
      | None -> QCheck.Test.fail_report "traced run returned no collector"
      | Some c -> (
        match Profile.Collector.timeline c with
        | None -> QCheck.Test.fail_report "timeline was not enabled"
        | Some tl ->
          if Profile.Timeline.length tl = 0 && Profile.Timeline.dropped tl = 0
          then QCheck.Test.fail_report "timeline attached but recorded nothing"));
      true)

(* repeated profiled runs of the same configuration also agree with each
   other — the collector aggregation itself is deterministic *)
let prop_profiling_deterministic =
  QCheck.Test.make ~name:"profiled run is deterministic" ~count:10 arbitrary
    (fun (case, sched, throttle, bypass) ->
      let run () =
        let _, _, c = run_case case ~sched ~throttle ~bypass ~profile:true in
        match c with
        | Some c -> Json.to_string (Profile.Collector.to_json c)
        | None -> ""
      in
      let a = run () and b = run () in
      if a <> b then QCheck.Test.fail_report "profile JSON diverged";
      true)

(* ------------------------------------------------------------------ *)
(* Pinned schedules: GTO and LRR under the run-time controllers         *)
(* ------------------------------------------------------------------ *)

(* The golden grid runs GTO only, and the properties above compare two
   runs of the same simulator, so neither would notice a scheduler change
   that shifts LRR's rotation or GTO's pick order under a controller.
   These digests pin the final Stats of each shape under {no controller,
   CIAO, DYNCTA} x {GTO, LRR}; a scheduler fast path must leave every one
   of them bit-identical. *)

let pin_cases =
  [
    divergent_case ~blocks:8 ~nx:512 ~ny:64 ();
    barrier_case ~blocks:16;
    branchy_case ~blocks:8 ~cut:400 ~trips:64 ();
  ]

let schedule_digests () =
  List.concat_map
    (fun case ->
      List.concat_map
        (fun throttle ->
          List.map
            (fun sched ->
              let stats, _, _ =
                run_case case ~sched ~throttle ~bypass:false ~profile:false
              in
              (print_cfg (case, sched, throttle, false), Digest.to_hex (Digest.string stats)))
            [ Gpusim.Sm.Gto; Gpusim.Sm.Lrr ])
        [ `None; `Ciao; `Dyncta ])
    pin_cases

(* generated by [schedule_digests] before the scheduler fast paths landed *)
let schedule_pins =
  [
    ("divergent-512x64 sched=gto throttle=none bypass=false",
     "0759860b48a312c2bfe5c6b24758e0ec");
    ("divergent-512x64 sched=lrr throttle=none bypass=false",
     "70d12d496f24441cdbb5823b9691eccd");
    ("divergent-512x64 sched=gto throttle=ciao bypass=false",
     "3602226085fea217105416a129587e1d");
    ("divergent-512x64 sched=lrr throttle=ciao bypass=false",
     "a509ced69308d381c74a9d8ea7ddc98b");
    ("divergent-512x64 sched=gto throttle=dyncta bypass=false",
     "c38be08053edb5968e63453e9b15fe5f");
    ("divergent-512x64 sched=lrr throttle=dyncta bypass=false",
     "4a4a4db75340f4e40f4c9cd618eae91c");
    ("barrier-shared-16 sched=gto throttle=none bypass=false",
     "797183670231384dd0c11575df5c9372");
    ("barrier-shared-16 sched=lrr throttle=none bypass=false",
     "afbc38d50b945d6bd6088e079683549c");
    ("barrier-shared-16 sched=gto throttle=ciao bypass=false",
     "797183670231384dd0c11575df5c9372");
    ("barrier-shared-16 sched=lrr throttle=ciao bypass=false",
     "afbc38d50b945d6bd6088e079683549c");
    ("barrier-shared-16 sched=gto throttle=dyncta bypass=false",
     "797183670231384dd0c11575df5c9372");
    ("barrier-shared-16 sched=lrr throttle=dyncta bypass=false",
     "afbc38d50b945d6bd6088e079683549c");
    ("branchy-400-64 sched=gto throttle=none bypass=false",
     "31f6302ce75aeb5211e54e1b16790bd5");
    ("branchy-400-64 sched=lrr throttle=none bypass=false",
     "4a09404b6b12958320099106a6ea48e7");
    ("branchy-400-64 sched=gto throttle=ciao bypass=false",
     "31f6302ce75aeb5211e54e1b16790bd5");
    ("branchy-400-64 sched=lrr throttle=ciao bypass=false",
     "4a09404b6b12958320099106a6ea48e7");
    ("branchy-400-64 sched=gto throttle=dyncta bypass=false",
     "a5e7fa925a24303a4a06ba85c99f4573");
    ("branchy-400-64 sched=lrr throttle=dyncta bypass=false",
     "9d6f8507eae99d2f9f08f9bebf796459");
  ]

let test_schedule_pins () =
  let actual = schedule_digests () in
  Alcotest.(check int) "pin count" (List.length schedule_pins) (List.length actual);
  List.iter2
    (fun (label, want) (label', got) ->
      Alcotest.(check string) "pin order" label label';
      Alcotest.(check string) label want got)
    schedule_pins actual

(* ------------------------------------------------------------------ *)
(* Golden grid: bit-identity of the full evaluation grid               *)
(* ------------------------------------------------------------------ *)

(* The QCheck properties above prove profiling is pure on random kernels;
   the golden grid pins the absolute semantics of the real evaluation:
   every (workload, scheme) cell's stats, profiles and final memory must
   digest to exactly the committed snapshot.  A hot-path optimization that
   changes any counter, any profile bucket or any output bit fails here. *)

let golden_grid_path = Filename.concat "golden_profiles" "golden_grid.json"
let golden_grid_cfg () = Experiments.Configs.max_l1d ()

let render_grid () =
  Json.to_string ~pretty:true
    (Experiments.Golden_grid.to_json
       (Experiments.Golden_grid.digests (golden_grid_cfg ())))
  ^ "\n"

let test_golden_grid () =
  if not (Sys.file_exists golden_grid_path) then
    Alcotest.failf "missing golden %s — regenerate (see test_profile.ml)"
      golden_grid_path;
  let golden =
    match
      Json.of_string
        (In_channel.with_open_bin golden_grid_path In_channel.input_all)
    with
    | Ok j -> (
      match Experiments.Golden_grid.of_json j with
      | Ok pairs -> pairs
      | Error msg -> Alcotest.failf "unreadable golden grid: %s" msg)
    | Error msg -> Alcotest.failf "unreadable golden grid: %s" msg
  in
  let actual = Experiments.Golden_grid.digests (golden_grid_cfg ()) in
  Alcotest.(check int) "cell count" (List.length golden) (List.length actual);
  List.iter2
    (fun (gk, gd) (ak, ad) ->
      Alcotest.(check string) "cell key order" gk ak;
      Alcotest.(check string) (gk ^ " digest") gd ad)
    golden actual

let regen_golden_grid dir =
  let path = Filename.concat dir "golden_grid.json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (render_grid ()));
  Printf.printf "wrote %s\n" path

let tests =
  [
    ( "differential",
      [
        QCheck_alcotest.to_alcotest prop_profiling_pure;
        QCheck_alcotest.to_alcotest prop_tracing_pure;
        QCheck_alcotest.to_alcotest prop_profiling_deterministic;
        Alcotest.test_case "GTO/LRR schedules under controllers are pinned"
          `Quick test_schedule_pins;
        Alcotest.test_case "golden grid bit-identity" `Slow test_golden_grid;
      ] );
  ]
