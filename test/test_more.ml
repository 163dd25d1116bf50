(** Second-wave coverage: printer precedence, ISA corner semantics, affine
    algebra edges, footprint arithmetic on negative strides, throttle
    divisor handling, occupancy rounding, and per-workload analysis
    invariants that pin the paper's qualitative claims to the suite. *)

module Ast = Minicuda.Ast
module Affine = Catt.Affine

(* ---------------------- printer precedence ------------------------- *)

let roundtrip_expr src =
  let e = Minicuda.Parser.parse_expr src in
  let printed = Minicuda.Pretty.expr e in
  let e2 = Minicuda.Parser.parse_expr printed in
  Alcotest.(check bool) (src ^ " round-trips as " ^ printed) true (Ast.equal_expr e e2);
  printed

let test_pretty_minimal_parens () =
  Alcotest.(check string) "no spurious parens" "a + b * c" (roundtrip_expr "a + b * c");
  Alcotest.(check string) "needed parens kept" "(a + b) * c" (roundtrip_expr "(a + b) * c");
  Alcotest.(check string) "right-assoc sub" "a - (b - c)" (roundtrip_expr "a - (b - c)");
  Alcotest.(check string) "flat left sub" "a - b - c" (roundtrip_expr "a - b - c")

let test_pretty_unary_and_cast () =
  ignore (roundtrip_expr "-(a + b)");
  ignore (roundtrip_expr "(int)(a / b)");
  ignore (roundtrip_expr "(float)a * 2.0");
  ignore (roundtrip_expr "!(a < b) && c > d")

let test_pretty_ternary_nesting () =
  ignore (roundtrip_expr "a < b ? 1 : c < d ? 2 : 3");
  ignore (roundtrip_expr "(a < b ? 1 : 2) + 5")

let test_pretty_deep_nesting () =
  ignore (roundtrip_expr "((a + b) * (c - d)) / (e % 7 + 1)")

(* ------------------------ ISA semantics ---------------------------- *)

let cfg = Gpusim.Config.scaled ~num_sms:1 ~onchip_bytes:(32 * 1024) ()

let run_lane_kernel body =
  let src =
    Printf.sprintf
      "__global__ void k(float *inv, float *out) { int i = threadIdx.x; %s }" body
  in
  let prog = Gpusim.Codegen.compile_kernel (Minicuda.Parser.parse_kernel src) in
  let dev = Gpusim.Gpu.create cfg in
  Gpusim.Gpu.upload dev "inv"
    (Array.init 32 (fun i -> float_of_int (i - 16) /. 2.));
  Gpusim.Gpu.alloc dev "out" 32;
  ignore
    (Gpusim.Gpu.launch dev
       (Gpusim.Gpu.default_launch ~prog ~grid:(1, 1) ~block:(32, 1)
          [ Gpusim.Gpu.Arr "inv"; Gpusim.Gpu.Arr "out" ]));
  Gpusim.Gpu.get dev "out"

let check_lanes name body expected =
  let out = run_lane_kernel body in
  Array.iteri
    (fun i e ->
      if abs_float (e -. out.(i)) > 1e-9 then
        Alcotest.failf "%s lane %d: expected %g got %g" name i e out.(i))
    (Array.init 32 expected)

let test_isa_ternary_select () =
  check_lanes "sel" "out[i] = i % 2 == 0 ? 10.0 : 20.0;" (fun i ->
      if i mod 2 = 0 then 10. else 20.)

let test_isa_logical_not () =
  check_lanes "not" "out[i] = !(i < 16) ? 1.0 : 0.0;" (fun i ->
      if i < 16 then 0. else 1.)

let test_isa_trunc_toward_zero () =
  (* C casts truncate toward zero, also for negatives *)
  check_lanes "trunc" "out[i] = (float)((int)inv[i]);" (fun i ->
      Float.of_int (int_of_float (float_of_int (i - 16) /. 2.)))

let test_isa_negative_mod () =
  check_lanes "mod" "out[i] = (float)((i - 16) % 5);" (fun i -> float_of_int ((i - 16) mod 5))

let test_isa_negative_div () =
  check_lanes "div" "out[i] = (float)((i - 16) / 3);" (fun i -> float_of_int ((i - 16) / 3))

let test_isa_builtin_calls () =
  check_lanes "fmaxf" "out[i] = fmaxf(inv[i], 0.0);" (fun i ->
      max (float_of_int (i - 16) /. 2.) 0.);
  check_lanes "fabs+sqrt" "out[i] = sqrtf(fabsf(inv[i]));" (fun i ->
      sqrt (abs_float (float_of_int (i - 16) /. 2.)));
  check_lanes "min-int" "out[i] = (float)(min(i, 7));" (fun i -> float_of_int (min i 7))

let test_isa_bool_ops () =
  check_lanes "and-or"
    "out[i] = (i > 4 && i < 10) || i == 20 ? 1.0 : 0.0;"
    (fun i -> if (i > 4 && i < 10) || i = 20 then 1. else 0.)

let test_isa_compound_float_div () =
  check_lanes "divassign" "float v = 16.0; v /= 4.0; out[i] = v;" (fun _ -> 4.)

(* ----------------------- break / continue --------------------------- *)

let run_kernel32 src arrays =
  let prog = Gpusim.Codegen.compile_kernel (Minicuda.Parser.parse_kernel src) in
  let dev = Gpusim.Gpu.create cfg in
  List.iter (fun (n, d) -> Gpusim.Gpu.upload dev n d) arrays;
  ignore
    (Gpusim.Gpu.launch dev
       (Gpusim.Gpu.default_launch ~prog ~grid:(1, 1) ~block:(32, 1)
          (List.map (fun (n, _) -> Gpusim.Gpu.Arr n) arrays)));
  dev

let test_break_divergent () =
  let dev =
    run_kernel32
      "__global__ void k(float *out) { int i = threadIdx.x; float acc = 0.0;\n\
       for (int j = 0; j < 100; j++) { if (j == i) { break; } acc += 1.0; }\n\
       out[i] = acc; }"
      [ ("out", Array.make 32 0.) ]
  in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) "lane count" (float_of_int i) v)
    (Gpusim.Gpu.get dev "out")

let test_continue_skips () =
  let dev =
    run_kernel32
      "__global__ void k(float *out) { int i = threadIdx.x; float acc = 0.0;\n\
       for (int j = 0; j < 10; j++) { if (j % 2 == 0) { continue; } acc += (float)j; }\n\
       out[i] = acc; }"
      [ ("out", Array.make 32 0.) ]
  in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-9)) "sum of odds" 25. v)
    (Gpusim.Gpu.get dev "out")

let test_break_in_while () =
  let dev =
    run_kernel32
      "__global__ void k(float *out) { int i = threadIdx.x; int v = 0;\n\
       while (true) { v++; if (v > i) { break; } }\n\
       out[i] = (float)v; }"
      [ ("out", Array.make 32 0.) ]
  in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) "exit count" (float_of_int (i + 1)) v)
    (Gpusim.Gpu.get dev "out")

let test_break_nested_binds_inner () =
  let dev =
    run_kernel32
      "__global__ void k(float *out) { int i = threadIdx.x; float acc = 0.0;\n\
       for (int a = 0; a < 3; a++) { for (int b = 0; b < 50; b++) {\n\
       if (b >= i) { break; } acc += 1.0; } acc += 100.0; }\n\
       out[i] = acc; }"
      [ ("out", Array.make 32 0.) ]
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9)) "inner-only break"
        (float_of_int ((3 * i) + 300))
        v)
    (Gpusim.Gpu.get dev "out")

let test_break_outside_loop_rejected () =
  (try
     ignore
       (Minicuda.Typecheck.check_kernel
          (Minicuda.Parser.parse_kernel "__global__ void k(float *a) { break; a[0] = 0.0; }"));
     Alcotest.fail "break outside loop must be rejected"
   with Minicuda.Typecheck.Type_error _ -> ());
  try
    ignore
      (Minicuda.Typecheck.check_kernel
         (Minicuda.Parser.parse_kernel
            "__global__ void k(float *a) { if (a[0] > 0.0) { continue; } }"));
    Alcotest.fail "continue outside loop must be rejected"
  with Minicuda.Typecheck.Type_error _ -> ()

let test_break_roundtrip () =
  let src =
    "__global__ void k(float *a) { for (int j = 0; j < 4; j++) { if (a[j] > 1.0) { break; } if (a[j] < 0.0) { continue; } a[j] = 0.0; } }"
  in
  let k = Minicuda.Parser.parse_kernel src in
  let k2 = Minicuda.Parser.parse_kernel (Minicuda.Pretty.kernel k) in
  Alcotest.(check bool) "round trip" true (Minicuda.Ast.equal_kernel k k2)

(* --------------------------- affine edges --------------------------- *)

let test_affine_cancellation () =
  let a = Affine.iter "j" in
  match Affine.sub (Affine.Affine a) (Affine.Affine a) with
  | Affine.Affine z ->
    Alcotest.(check bool) "j - j = 0" true (Affine.is_constant z);
    Alcotest.(check int) "zero" 0 z.Affine.const;
    Alcotest.(check int) "no j term" 0 (Affine.coeff_of_iter z "j")
  | Affine.Unknown -> Alcotest.fail "should be affine"

let test_affine_drop_iter () =
  let a = { (Affine.const 3) with Affine.iters = [ ("i", 2); ("j", 5) ] } in
  let d = Affine.drop_iter a "i" in
  Alcotest.(check int) "i dropped" 0 (Affine.coeff_of_iter d "i");
  Alcotest.(check int) "j kept" 5 (Affine.coeff_of_iter d "j")

let test_affine_to_string () =
  let a = { (Affine.const 7) with Affine.c_tx = 2; iters = [ ("j", -1) ] } in
  Alcotest.(check string) "rendering" "2*tid.x + -j + 7" (Affine.to_string a);
  Alcotest.(check string) "zero" "0" (Affine.to_string (Affine.const 0))

let test_affine_mul_unknown_propagates () =
  Alcotest.(check bool) "unknown * affine" true
    (Affine.mul Affine.Unknown (Affine.Affine (Affine.const 2)) = Affine.Unknown);
  Alcotest.(check bool) "neg unknown" true (Affine.neg Affine.Unknown = Affine.Unknown)

(* -------------------- footprint on negative strides ----------------- *)

let test_req_negative_stride () =
  (* index = -4096 * tid: still one line per lane *)
  let a = { (Affine.const 0) with Affine.c_tx = -4096 } in
  Alcotest.(check int) "negative stride divergent" 32
    (Catt.Footprint.req_warp ~line_bytes:128 ~warp_size:32 ~block_x:256
       (Affine.Affine a));
  (* small negative stride: same sharing as positive *)
  let b = { (Affine.const 0) with Affine.c_tx = -1 } in
  Alcotest.(check int) "adjacent downward" 2
    (Catt.Footprint.req_warp ~line_bytes:128 ~warp_size:32 ~block_x:256
       (Affine.Affine b))

(* -------------------------- throttle edges -------------------------- *)

let test_throttle_non_power_of_two_warps () =
  (* 6 warps per TB: divisors 1,2,3,6 — Eq. 9 must use 3 when it fits *)
  let summary =
    {
      Catt.Footprint.access =
        {
          Catt.Analysis.array = "a";
          index = Affine.Affine (Affine.const 0);
          is_load = true;
          is_store = false;
          innermost_iter = Some "j";
        };
      req_warp = 60;
      has_reuse = true;
      irregular = false;
    }
  in
  let fp =
    {
      Catt.Footprint.loop =
        {
          Catt.Analysis.loop_id = 0;
          loop_var = "j";
          accesses = [];
          has_barrier = false;
          gaccesses = [];
        };
      summaries = [ summary ];
      req_per_warp = 60;
      shared_lines = 0;
      has_locality = true;
      any_irregular = false;
    }
  in
  (* 60 lines * 6 warps * 2 TBs = 720 > 256; /2 -> 360 > 256; /3 -> 240 ok *)
  let d =
    Catt.Throttle.decide ~line_bytes:128 ~l1d_bytes:(32 * 1024) ~warps_per_tb:6
      ~tbs:2 fp
  in
  Alcotest.(check int) "N = 3" 3 d.Catt.Throttle.n;
  Alcotest.(check int) "2 warps active" 2 d.Catt.Throttle.active_warps_per_tb

(* -------------------------- occupancy edges ------------------------- *)

let test_occupancy_grid_cap_rounds_up () =
  let volta = Gpusim.Config.volta ~num_sms:4 () in
  match
    Catt.Occupancy.configure volta ~grid_tbs:5 ~tb_threads:64 ~num_regs:8
      ~shared_bytes:0 ()
  with
  | Ok occ ->
    (* 5 TBs over 4 SMs: one SM holds 2 *)
    Alcotest.(check int) "ceil(5/4) = 2" 2 occ.Catt.Occupancy.tbs_per_sm
  | Error e -> Alcotest.fail e

(* --------------------- analysis decay behaviours -------------------- *)

let analyze src =
  Catt.Analysis.analyze_kernel
    (Minicuda.Parser.parse_kernel src)
    { Catt.Analysis.grid_x = 4; grid_y = 1; block_x = 256; block_y = 1 }

let index_of loop array =
  (List.find
     (fun (a : Catt.Analysis.access) -> a.Catt.Analysis.array = array)
     loop.Catt.Analysis.accesses)
    .Catt.Analysis.index

let test_analysis_if_join_decays () =
  (* base differs between branches -> Unknown afterwards *)
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     int base = 0;\n\
     if (i < 16) { base = 1; } else { base = 2; }\n\
     for (int j = 0; j < 4; j++) { out[i] += a[base + j]; }\n\
     }"
  in
  match analyze src with
  | [ loop ] ->
    Alcotest.(check bool) "conflicting join is Unknown" true
      (index_of loop "a" = Affine.Unknown)
  | _ -> Alcotest.fail "one loop"

let test_analysis_if_join_agreeing_kept () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     int base = 5;\n\
     if (i < 16) { base = 5; }\n\
     for (int j = 0; j < 4; j++) { out[i] += a[base + j]; }\n\
     }"
  in
  match analyze src with
  | [ loop ] -> (
    match index_of loop "a" with
    | Affine.Affine aff -> Alcotest.(check int) "const kept" 5 aff.Affine.const
    | Affine.Unknown -> Alcotest.fail "agreeing join should survive")
  | _ -> Alcotest.fail "one loop"

(* both arms assign the same value: it survives the join even though it
   differs from the value before the [if] *)
let test_analysis_if_join_both_arms_agree () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     int x = 0;\n\
     if (i < 16) { x = 4; } else { x = 4; }\n\
     for (int j = 0; j < 4; j++) { out[i] += a[x + j]; }\n\
     }"
  in
  match analyze src with
  | [ loop ] ->
    let expected =
      Affine.add (Affine.Affine (Affine.const 4)) (Affine.Affine (Affine.iter "j"))
    in
    Alcotest.(check bool) "index is 4 + j" true
      (Affine.equal_value expected (index_of loop "a"))
  | _ -> Alcotest.fail "one loop"

let test_analysis_mod_is_unknown () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     for (int j = 0; j < 4; j++) { out[i] += a[i % 7 + j]; }\n\
     }"
  in
  match analyze src with
  | [ loop ] ->
    Alcotest.(check bool) "modulo index unknown" true
      (index_of loop "a" = Affine.Unknown)
  | _ -> Alcotest.fail "one loop"

let test_analysis_innermost_iter_nested () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     for (int c = 0; c < 4; c++) {\n\
     for (int f = 0; f < 8; f++) { out[i] += a[c * 100 + f]; }\n\
     }\n\
     }"
  in
  match analyze src with
  | [ loop ] ->
    let a =
      List.find
        (fun (x : Catt.Analysis.access) -> x.Catt.Analysis.array = "a")
        loop.Catt.Analysis.accesses
    in
    Alcotest.(check (option string)) "innermost is f" (Some "f")
      a.Catt.Analysis.innermost_iter
  | _ -> Alcotest.fail "one loop"

let test_analysis_barrier_flag () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     __shared__ float s[32];\n\
     int i = threadIdx.x;\n\
     for (int j = 0; j < 4; j++) { s[i] = a[i]; __syncthreads(); out[i] += s[31 - i]; }\n\
     }"
  in
  match analyze src with
  | [ loop ] ->
    Alcotest.(check bool) "barrier detected" true loop.Catt.Analysis.has_barrier
  | _ -> Alcotest.fail "one loop"

(* -------------------- per-workload paper claims --------------------- *)

let exp_cfg = Experiments.Configs.max_l1d ()

let catt_analysis_of name kernel_name =
  let w = Workloads.Registry.find name in
  let run = Experiments.Runner.run exp_cfg w Experiments.Runner.Catt in
  List.assoc kernel_name run.Experiments.Runner.catt_analyses

let throttled (t : Catt.Driver.t) =
  List.exists
    (fun (l : Catt.Driver.loop_decision) -> l.Catt.Driver.decision.Catt.Throttle.throttled)
    t.Catt.Driver.loops

let test_atax_phase_split () =
  (* the paper's headline: kernel 1 throttled, kernel 2 left alone *)
  Alcotest.(check bool) "k1 throttled" true
    (throttled (catt_analysis_of "ATAX" "atax_kernel1"));
  Alcotest.(check bool) "k2 untouched" false
    (throttled (catt_analysis_of "ATAX" "atax_kernel2"))

let test_bicg_phase_split () =
  Alcotest.(check bool) "k1 untouched" false
    (throttled (catt_analysis_of "BICG" "bicg_kernel1"));
  Alcotest.(check bool) "k2 throttled" true
    (throttled (catt_analysis_of "BICG" "bicg_kernel2"))

let test_corr_unresolvable () =
  let t = catt_analysis_of "CORR" "corr_kernel" in
  Alcotest.(check bool) "not resolved" true
    (List.exists
       (fun (l : Catt.Driver.loop_decision) ->
         not l.Catt.Driver.decision.Catt.Throttle.resolved)
       t.Catt.Driver.loops);
  Alcotest.(check bool) "left untouched" false (throttled t)

let test_pf_per_loop_decisions () =
  let t = catt_analysis_of "PF" "pf_likelihood" in
  let decisions =
    List.map
      (fun (l : Catt.Driver.loop_decision) -> l.Catt.Driver.decision.Catt.Throttle.throttled)
      t.Catt.Driver.loops
  in
  (* loops 1 and 2 are divergent, loop 3 is compute-only *)
  Alcotest.(check (list bool)) "per-loop decisions" [ true; true; false ] decisions

let test_syr2k_tb_level () =
  let t = catt_analysis_of "SYR2K" "syr2k_kernel" in
  Alcotest.(check bool) "TB throttle planned" true
    (t.Catt.Driver.tb_throttle_plan <> None)

let tests =
  [
    ( "more.pretty",
      [
        Alcotest.test_case "minimal parens" `Quick test_pretty_minimal_parens;
        Alcotest.test_case "unary and cast" `Quick test_pretty_unary_and_cast;
        Alcotest.test_case "ternary nesting" `Quick test_pretty_ternary_nesting;
        Alcotest.test_case "deep nesting" `Quick test_pretty_deep_nesting;
      ] );
    ( "more.isa",
      [
        Alcotest.test_case "ternary select" `Quick test_isa_ternary_select;
        Alcotest.test_case "logical not" `Quick test_isa_logical_not;
        Alcotest.test_case "trunc toward zero" `Quick test_isa_trunc_toward_zero;
        Alcotest.test_case "negative mod" `Quick test_isa_negative_mod;
        Alcotest.test_case "negative div" `Quick test_isa_negative_div;
        Alcotest.test_case "builtin calls" `Quick test_isa_builtin_calls;
        Alcotest.test_case "bool ops" `Quick test_isa_bool_ops;
        Alcotest.test_case "compound float div" `Quick test_isa_compound_float_div;
      ] );
    ( "more.breakcont",
      [
        Alcotest.test_case "divergent break" `Quick test_break_divergent;
        Alcotest.test_case "continue skips" `Quick test_continue_skips;
        Alcotest.test_case "break in while(true)" `Quick test_break_in_while;
        Alcotest.test_case "nested binds inner" `Quick test_break_nested_binds_inner;
        Alcotest.test_case "rejected outside loops" `Quick test_break_outside_loop_rejected;
        Alcotest.test_case "round trip" `Quick test_break_roundtrip;
      ] );
    ( "more.affine",
      [
        Alcotest.test_case "cancellation" `Quick test_affine_cancellation;
        Alcotest.test_case "drop_iter" `Quick test_affine_drop_iter;
        Alcotest.test_case "to_string" `Quick test_affine_to_string;
        Alcotest.test_case "unknown propagation" `Quick test_affine_mul_unknown_propagates;
      ] );
    ( "more.footprint",
      [ Alcotest.test_case "negative strides" `Quick test_req_negative_stride ] );
    ( "more.throttle",
      [ Alcotest.test_case "non-power-of-two warps" `Quick test_throttle_non_power_of_two_warps ] );
    ( "more.occupancy",
      [ Alcotest.test_case "grid cap rounding" `Quick test_occupancy_grid_cap_rounds_up ] );
    ( "more.analysis",
      [
        Alcotest.test_case "if-join decays" `Quick test_analysis_if_join_decays;
        Alcotest.test_case "if-join agreement kept" `Quick test_analysis_if_join_agreeing_kept;
        Alcotest.test_case "if-join both arms agree" `Quick
          test_analysis_if_join_both_arms_agree;
        Alcotest.test_case "modulo is unknown" `Quick test_analysis_mod_is_unknown;
        Alcotest.test_case "innermost iterator" `Quick test_analysis_innermost_iter_nested;
        Alcotest.test_case "barrier flag" `Quick test_analysis_barrier_flag;
      ] );
    ( "more.paper-claims",
      [
        Alcotest.test_case "ATAX phase split" `Quick test_atax_phase_split;
        Alcotest.test_case "BICG phase split" `Quick test_bicg_phase_split;
        Alcotest.test_case "CORR unresolvable" `Quick test_corr_unresolvable;
        Alcotest.test_case "PF per-loop decisions" `Quick test_pf_per_loop_decisions;
        Alcotest.test_case "SYR2K TB-level plan" `Quick test_syr2k_tb_level;
      ] );
  ]
