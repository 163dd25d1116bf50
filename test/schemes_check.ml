(** Lockdown suite for the interference-aware hardware schemes (the
    [@schemes] alias): CIAO selective bypassing and the ATA-Cache.

    Three layers:

    1. Differential: for EVERY registered workload x both L1D settings,
       each new scheme runs twice on fresh devices — once bare, once with
       the profiler attached.  The two runs' serialized {!Gpusim.Stats}
       must be bit-identical, which pins run-to-run determinism (two
       independent simulations of the same seed) and profiling purity in
       one pass.  At the max-L1D setting the profiled run is additionally
       reduced to its golden-grid digest and checked against the
       committed snapshot, so the new schemes' cells are pinned by the
       same bit-identity regime as the rest of the grid.

    2. Scheme semantics (QCheck over fixture parameters, see
       {!Workloads.Fixtures}): an aggregated tag array never increases
       the L1D miss count on a pure-reuse walk, and CIAO's
       bypassed-by-policy counter stays exactly zero on single-warp
       launches (no cross-warp interference can accrue).

    3. Interference: on the two-array contention fixture CIAO must
       actually flag and bypass the streaming warps, and the ATA shadow
       tags must see hits and promote on the thrashing re-walk. *)

module Runner = Experiments.Runner
module Json = Gpu_util.Json

let new_schemes = [ Runner.Ciao; Runner.Ata ]

let configs () =
  [ Experiments.Configs.max_l1d (); Experiments.Configs.small_l1d () ]

let stats_of_run (r : Runner.app_run) =
  String.concat "\n"
    (List.map
       (fun (ks : Runner.kernel_stats) ->
         ks.Runner.kernel_name ^ ":"
         ^ Json.to_string (Gpusim.Stats.to_json ks.Runner.stats))
       r.Runner.kernels)

let golden_grid_path = Filename.concat "golden_profiles" "golden_grid.json"

let committed_digests () =
  match
    Json.of_string
      (In_channel.with_open_bin golden_grid_path In_channel.input_all)
  with
  | Ok j -> (
    match Experiments.Golden_grid.of_json j with
    | Ok pairs -> pairs
    | Error msg -> Alcotest.failf "unreadable golden grid: %s" msg)
  | Error msg -> Alcotest.failf "unreadable golden grid: %s" msg

(* one bare + one profiled run per (workload, config, scheme) cell; the
   profiled run at max L1D doubles as the golden-grid cell recomputation *)
let test_differential () =
  let golden = committed_digests () in
  let max_cfg = Experiments.Configs.max_l1d () in
  List.iter
    (fun cfg ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          List.iter
            (fun scheme ->
              let name =
                Printf.sprintf "%s/%s/%s"
                  (Experiments.Configs.label cfg)
                  w.Workloads.Workload.name
                  (Runner.scheme_label scheme)
              in
              let bare =
                match
                  Runner.simulate (Runner.Request.make cfg w scheme)
                with
                | Ok runs -> List.hd runs
                | Error msg -> Alcotest.failf "%s: bare run failed: %s" name msg
              in
              let mem = ref "" in
              let profiled =
                match
                  Runner.simulate
                    (Runner.Request.make ~profile:true
                       ~on_device:(fun dev ->
                         mem :=
                           Digest.to_hex
                             (Experiments.Golden_grid.digest_memory dev))
                       cfg w scheme)
                with
                | Ok runs -> List.hd runs
                | Error msg ->
                  Alcotest.failf "%s: profiled run failed: %s" name msg
              in
              Alcotest.(check string)
                (name ^ " profiled == bare stats")
                (stats_of_run bare) (stats_of_run profiled);
              if cfg = max_cfg then begin
                let key = Experiments.Golden_grid.cell_key w scheme in
                match List.assoc_opt key golden with
                | None ->
                  Alcotest.failf "golden grid has no cell %s — regenerate" key
                | Some committed ->
                  Alcotest.(check string)
                    (name ^ " golden digest")
                    committed
                    (Experiments.Golden_grid.digest_of_run ~mem:!mem profiled)
              end)
            new_schemes)
        Workloads.Registry.all)
    (configs ())

(* ------------------------------------------------------------------ *)
(* Scheme semantics on the fixtures                                    *)
(* ------------------------------------------------------------------ *)

let fixture_cfg () = Experiments.Configs.max_l1d ()

(* ATA on pure reuse: promoting only proven-reuse lines can delay a cold
   fill but never evict a live line earlier than plain LRU — the miss
   count must not rise, whether the footprint fits (warps * span <= 256
   lines here) or thrashes *)
let prop_ata_pure_reuse =
  let params =
    QCheck.Gen.(
      triple (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 8; 16; 40; 96 ])
        (oneofl [ 2; 4; 8 ]))
  in
  let print (warps, span, reps) =
    Printf.sprintf "warps=%d span=%d reps=%d" warps span reps
  in
  QCheck.Test.make ~name:"ATA never increases misses on pure reuse" ~count:20
    (QCheck.make ~print params) (fun (warps, span, reps) ->
      let p = { Workloads.Fixtures.warps; span; reps } in
      let cfg = fixture_cfg () in
      let base = Workloads.Fixtures.run_reuse cfg p in
      let ata = Workloads.Fixtures.run_reuse ~throttle:`Ata cfg p in
      if ata.Gpusim.Stats.l1_accesses <> base.Gpusim.Stats.l1_accesses then
        QCheck.Test.fail_reportf "access counts diverged: %d vs %d"
          base.Gpusim.Stats.l1_accesses ata.Gpusim.Stats.l1_accesses;
      if ata.Gpusim.Stats.l1_misses > base.Gpusim.Stats.l1_misses then
        QCheck.Test.fail_reportf "ATA raised misses: %d -> %d (%s)"
          base.Gpusim.Stats.l1_misses ata.Gpusim.Stats.l1_misses
          (print (warps, span, reps));
      true)

(* CIAO quiescence: one warp per SM cannot interfere with anyone, so no
   warp is ever flagged and the bypassed-by-policy counter stays zero no
   matter how long the kernel runs (warm-up alone already covers the
   short-run case) *)
let prop_ciao_quiescent =
  let params =
    QCheck.Gen.(pair (oneofl [ 8; 64; 128 ]) (oneofl [ 2; 8; 32 ]))
  in
  let print (span, reps) = Printf.sprintf "span=%d reps=%d" span reps in
  QCheck.Test.make ~name:"CIAO bypasses nothing on single-warp launches"
    ~count:9 (QCheck.make ~print params) (fun (span, reps) ->
      let p = { Workloads.Fixtures.warps = 1; span; reps } in
      let stats =
        Workloads.Fixtures.run_reuse ~throttle:`Ciao (fixture_cfg ()) p
      in
      if stats.Gpusim.Stats.bypass_transactions <> 0 then
        QCheck.Test.fail_reportf "bypassed %d accesses on %s"
          stats.Gpusim.Stats.bypass_transactions (print (span, reps));
      true)

let interference_params =
  {
    Workloads.Fixtures.streamers = 7;
    hot_span = 32;
    stream_span = 512;
    hot_reps = 64;
  }

(* the contention shape CIAO is for: streaming warps keep evicting the
   hot warp's lines, so past warm-up they get flagged and their loads
   take the bypass path *)
let test_ciao_flags_streamers () =
  let stats =
    Workloads.Fixtures.run_interference ~throttle:`Ciao (fixture_cfg ())
      interference_params
  in
  Alcotest.(check bool)
    "some accesses bypassed by policy" true
    (stats.Gpusim.Stats.bypass_transactions > 0);
  Alcotest.(check int) "ATA counters untouched" 0
    (stats.Gpusim.Stats.ata_tag_hits + stats.Gpusim.Stats.ata_promotions);
  (* bypassing the streamers must help the hot warp's reuse: fewer L1D
     misses than the unprotected baseline *)
  let base =
    Workloads.Fixtures.run_interference (fixture_cfg ()) interference_params
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer misses than baseline (%d vs %d)"
       stats.Gpusim.Stats.l1_misses base.Gpusim.Stats.l1_misses)
    true
    (stats.Gpusim.Stats.l1_misses < base.Gpusim.Stats.l1_misses)

(* the ATA shadow must actually engage on a thrashing re-walk: deferred
   first touches leave tags behind, re-touches hit them and promote.  The
   overflow is kept shallow (~5 lines per 4-way set against the 2-way
   shadow) — a reuse distance beyond data+shadow ways would rotate
   through the shadow without ever re-touching a still-shadowed tag *)
let test_ata_shadow_engages () =
  let p = { Workloads.Fixtures.warps = 4; span = 80; reps = 4 } in
  let stats = Workloads.Fixtures.run_reuse ~throttle:`Ata (fixture_cfg ()) p in
  Alcotest.(check bool)
    "shadow tag hits recorded" true
    (stats.Gpusim.Stats.ata_tag_hits > 0);
  Alcotest.(check bool)
    "promotions recorded" true
    (stats.Gpusim.Stats.ata_promotions > 0);
  Alcotest.(check int) "tag hits == promotions (every hit promotes)"
    stats.Gpusim.Stats.ata_tag_hits stats.Gpusim.Stats.ata_promotions

let () =
  Alcotest.run "catt-schemes"
    [
      ( "schemes",
        [
          Alcotest.test_case
            "ciao/ata: determinism, purity, golden cells (all workloads, \
             both L1D configs)"
            `Slow test_differential;
          QCheck_alcotest.to_alcotest prop_ata_pure_reuse;
          QCheck_alcotest.to_alcotest prop_ciao_quiescent;
          Alcotest.test_case "CIAO flags the streaming warps" `Quick
            test_ciao_flags_streamers;
          Alcotest.test_case "ATA shadow engages under thrash" `Quick
            test_ata_shadow_engages;
        ] );
    ]
