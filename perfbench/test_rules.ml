(* Pins the benchmark's arithmetic: the tail-percentile rule, open-loop
   due-time latency and lateness, the self-time fold and its residual,
   and failed-share counting. *)

open Perfbench_rules.Rules

let feq = Alcotest.float 1e-9

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_ten_beyond () =
  (* 100 samples 1..100: rank 90 leaves exactly 10 beyond *)
  let t = tail (range 100) in
  Alcotest.check feq "value" 90. t.value;
  Alcotest.check feq "pct" 90. t.pct;
  Alcotest.(check int) "beyond" 10 t.beyond;
  Alcotest.(check int) "samples" 100 t.samples;
  (* 69 samples: rank 59, the 11th largest *)
  let t = tail (List.rev (range 69)) in
  Alcotest.check feq "69 value" 59. t.value;
  Alcotest.(check int) "69 beyond" 10 t.beyond

let test_tail_cap_p99 () =
  (* 5000 samples: n - 10 would be p99.8, capped at the p99 rank *)
  let t = tail (range 5000) in
  Alcotest.check feq "p99 value" 4950. t.value;
  Alcotest.check feq "pct" 99. t.pct;
  Alcotest.(check int) "beyond" 50 t.beyond;
  Alcotest.(check bool) "at least ten beyond" true (t.beyond >= 10)

let test_tail_small () =
  let t = tail [ 3.; 1.; 2. ] in
  Alcotest.check feq "median fallback" 2. t.value;
  Alcotest.check feq "pct" 50. t.pct;
  let t = tail (range 11) in
  Alcotest.check feq "11 samples: rank 1" 1. t.value;
  Alcotest.(check int) "beyond" 10 t.beyond

let test_median () =
  Alcotest.check feq "odd" 2. (median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even" 2.5 (median [ 4.; 1.; 2.; 3. ])

let test_median_by_key () =
  let m = median_by_key [ ("a", 3.); ("b", 1.); ("a", 1.); ("a", 2.); ("b", 5.) ] in
  Alcotest.(check (list (pair string feq))) "per key" [ ("a", 2.); ("b", 3.) ] m

let test_min_by_key () =
  let m = min_by_key [ ("a", 3.); ("b", 5.); ("a", 1.); ("a", 2.); ("b", 4.) ] in
  Alcotest.(check (list (pair string feq))) "per key" [ ("a", 1.); ("b", 4.) ] m

let test_open_loop () =
  let rate = 100. and start = 10. in
  Alcotest.check feq "due 0" 10. (due ~start ~rate 0);
  Alcotest.check feq "due 5" 10.05 (due ~start ~rate 5);
  (* a 30 ms stall before request 1 is sent: its latency counts the
     stall, and so does request 2's, sent late behind it *)
  let d1 = due ~start ~rate 1 and d2 = due ~start ~rate 2 in
  let sent1 = d1 +. 0.030 and sent2 = d1 +. 0.031 in
  Alcotest.check feq "lateness 1" 0.030 (lateness ~due:d1 ~sent:sent1);
  Alcotest.check feq "lateness 2" 0.021 (lateness ~due:d2 ~sent:sent2);
  Alcotest.check feq "latency 2 from due" 0.022
    (due_latency ~due:d2 ~received:(sent2 +. 0.001));
  Alcotest.check feq "early send is not late" 0.
    (lateness ~due:d2 ~sent:(d2 -. 0.001))

let sp id ?parent layer start stop = { id; parent; layer; start; stop }

let test_fold () =
  (* op of 100: root 0..90, a runner child 10..40 holding a gpusim
     grandchild 15..20, and a gpusim child 50..60 *)
  let spans =
    [
      sp 1 "client" 0. 90.;
      sp 2 ~parent:1 "runner" 10. 40.;
      sp 3 ~parent:2 "gpusim" 15. 20.;
      sp 4 ~parent:1 "gpusim" 50. 60.;
    ]
  in
  let layers, residual = fold ~total:100. spans in
  let get l = List.assoc l layers in
  Alcotest.check feq "client self" 50. (get "client");
  Alcotest.check feq "runner self" 25. (get "runner");
  Alcotest.check feq "gpusim self" 15. (get "gpusim");
  Alcotest.check feq "residual" 10. residual;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  Alcotest.check feq "self + residual = total" 100. (sum +. residual)

let test_fold_overlap () =
  (* children running in parallel cover their union once *)
  let root = sp 1 "client" 0. 90. in
  let kids = [ sp 2 ~parent:1 "a" 10. 40.; sp 3 ~parent:1 "b" 30. 60. ] in
  Alcotest.check feq "root self" 40. (self_time root ~children:kids)

let test_nest () =
  let flat =
    [
      sp 3 "c" 2. 3.;
      sp 1 "a" 0. 10.;
      sp 2 "b" 1. 5.;
      sp 4 "d" 6. 8.;
    ]
  in
  let nested = nest ~root:0 flat in
  let parent id = (List.find (fun s -> s.id = id) nested).parent in
  Alcotest.(check (option int)) "a under root" (Some 0) (parent 1);
  Alcotest.(check (option int)) "b under a" (Some 1) (parent 2);
  Alcotest.(check (option int)) "c under b" (Some 2) (parent 3);
  Alcotest.(check (option int)) "d under a" (Some 1) (parent 4)

let test_failed_share () =
  let t = tally () in
  List.iter (note t) [ true; true; false; true ];
  Alcotest.(check int) "attempted" 4 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  Alcotest.check feq "share" 0.25 (failed_share t);
  Alcotest.check feq "empty" 0. (failed_share (tally ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "tail: ten beyond" `Quick test_tail_ten_beyond;
          Alcotest.test_case "tail: p99 cap" `Quick test_tail_cap_p99;
          Alcotest.test_case "tail: few samples" `Quick test_tail_small;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "median by key" `Quick test_median_by_key;
          Alcotest.test_case "min by key" `Quick test_min_by_key;
          Alcotest.test_case "open loop due/lateness" `Quick test_open_loop;
          Alcotest.test_case "self-time fold" `Quick test_fold;
          Alcotest.test_case "fold: overlapping children" `Quick
            test_fold_overlap;
          Alcotest.test_case "nesting" `Quick test_nest;
          Alcotest.test_case "failed share" `Quick test_failed_share;
        ] );
    ]
