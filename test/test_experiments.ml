(** Tests for the experiment harness: runner memoization, the BFTT search,
    sweep candidate generation, and the report plumbing. *)

let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) ()

let fast_workload = Workloads.Registry.find "BT"  (* smallest runtime *)

let test_memoization_returns_same () =
  let a = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  let b = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  Alcotest.(check bool) "physically equal (memoized)" true (a == b)

let test_memo_distinguishes_configs () =
  let small = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(16 * 1024) () in
  let a = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  let b = Experiments.Runner.run small fast_workload Experiments.Runner.Baseline in
  Alcotest.(check bool) "different cache entries" true (a != b)

let test_candidates_ordering () =
  let w = Workloads.Registry.find "ATAX" in
  let cands = Experiments.Runner.candidates cfg w in
  (match cands with
  | (1, 0) :: _ -> ()
  | _ -> Alcotest.fail "first candidate must be the baseline");
  (* warp factors strictly increase before TB factors start *)
  let rec check_phases seen_tb = function
    | [] -> ()
    | (_, m) :: rest ->
      if m > 0 then check_phases true rest
      else if seen_tb then Alcotest.fail "warp candidate after TB candidates"
      else check_phases false rest
  in
  check_phases false cands

let test_bftt_is_minimum_of_sweep () =
  let w = Workloads.Registry.find "BT" in
  let sweep = Experiments.Runner.sweep cfg w in
  let _, best = Experiments.Runner.bftt cfg w in
  List.iter
    (fun (_, (r : Experiments.Runner.app_run)) ->
      Alcotest.(check bool) "bftt <= candidate" true
        (best.Experiments.Runner.total_cycles <= r.Experiments.Runner.total_cycles))
    sweep

let test_scheme_labels () =
  Alcotest.(check string) "baseline" "baseline"
    (Experiments.Runner.scheme_label Experiments.Runner.Baseline);
  Alcotest.(check string) "fixed" "fixed(N=4,M=1)"
    (Experiments.Runner.scheme_label (Experiments.Runner.Fixed (4, 1)))

(* Two distinct schemes must never alias one persistent-cache entry.
   [Cache.key] embeds the scheme label, so this holds iff labels are
   pairwise distinct across the whole [Scheme.samples] corpus — the same
   corpus the round-trip property iterates, so a new constructor lands
   here automatically (via the [sample_of] exhaustiveness guard). *)
let test_cache_keys_distinct () =
  let keys =
    List.map
      (fun s ->
        ( Experiments.Scheme.label s,
          Experiments.Cache.key cfg ~workload:"ATAX"
            ~scheme:(Experiments.Scheme.label s) ~seed:42 ))
      Experiments.Scheme.samples
  in
  List.iteri
    (fun i (li, ki) ->
      List.iteri
        (fun j (lj, kj) ->
          if i < j && ki = kj then
            Alcotest.failf "schemes %s and %s share cache key %s" li lj ki)
        keys)
    keys

let test_report_registry () =
  Alcotest.(check int) "fourteen artifacts" 14 (List.length Experiments.Report.artifacts);
  List.iter
    (fun id ->
      match Experiments.Report.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "artifact %s not found" id)
    [ "table3"; "fig2"; "fig3"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
      "overhead"; "sanitize-all"; "profile-all" ]

let test_configs () =
  Alcotest.(check int) "max" (32 * 1024)
    (Experiments.Configs.max_l1d ()).Gpusim.Config.onchip_bytes;
  Alcotest.(check int) "small" (16 * 1024)
    (Experiments.Configs.small_l1d ()).Gpusim.Config.onchip_bytes

let test_trace_runs_are_uncached () =
  let traced () =
    match
      Experiments.Runner.exec
        (Experiments.Runner.Request.make ~trace:true cfg fast_workload
           Experiments.Runner.Baseline)
    with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let a = traced () in
  let b = traced () in
  Alcotest.(check bool) "not memoized" true (a != b);
  (* trace data must be present *)
  Alcotest.(check bool) "has traces" true
    (List.for_all
       (fun (ks : Experiments.Runner.kernel_stats) -> ks.Experiments.Runner.trace <> None)
       a.Experiments.Runner.kernels)

let test_overhead_measures_all () =
  let entry = Experiments.Overhead.measure cfg (Workloads.Registry.find "ATAX") in
  Alcotest.(check int) "two kernels" 2 entry.Experiments.Overhead.kernels;
  Alcotest.(check bool) "fast" true (entry.Experiments.Overhead.seconds < 1.)

(* a pool stage sums each cell's allocation on the domain that ran it, so
   fanning the same cells over two domains reports what one domain does *)
let test_pool_minor_words_all_domains () =
  let workloads = List.map Workloads.Registry.find [ "BT"; "HM"; "MC" ] in
  match Experiments.Bench_core.pool_stages ~workloads ~jobs_list:[ 1; 2 ] () with
  | [ one; two ] ->
    let w1 = one.Experiments.Bench_core.minor_words_per_cell
    and w2 = two.Experiments.Bench_core.minor_words_per_cell in
    if abs_float (w2 -. w1) > 0.1 *. w1 then
      Alcotest.failf "jobs-2 reports %.0f minor words/cell, jobs-1 %.0f" w2 w1
  | stages -> Alcotest.failf "expected 2 pool stages, got %d" (List.length stages)

let tests =
  [
    ( "experiments.runner",
      [
        Alcotest.test_case "memoization" `Quick test_memoization_returns_same;
        Alcotest.test_case "pool stages count every domain's allocation" `Quick
          test_pool_minor_words_all_domains;
        Alcotest.test_case "memo per config" `Quick test_memo_distinguishes_configs;
        Alcotest.test_case "candidate ordering" `Quick test_candidates_ordering;
        Alcotest.test_case "BFTT minimizes" `Quick test_bftt_is_minimum_of_sweep;
        Alcotest.test_case "scheme labels" `Quick test_scheme_labels;
        Alcotest.test_case "trace runs uncached" `Quick test_trace_runs_are_uncached;
        Alcotest.test_case "cache keys distinct per scheme" `Quick
          test_cache_keys_distinct;
      ] );
    ( "experiments.report",
      [
        Alcotest.test_case "artifact registry" `Quick test_report_registry;
        Alcotest.test_case "configs" `Quick test_configs;
        Alcotest.test_case "overhead measurement" `Quick test_overhead_measures_all;
      ] );
  ]
