(** Tests for the CATT analyzer and transformations: affine index algebra
    (Eq. 5), request estimation (Eq. 7), footprints (Eqs. 6/8), occupancy
    configuration (Eqs. 1-4), the throttling-factor search (Eq. 9), and the
    semantic preservation of both code transformations. *)

module Affine = Catt.Affine
module Analysis = Catt.Analysis
module Footprint = Catt.Footprint
module Occupancy = Catt.Occupancy
module Throttle = Catt.Throttle
module Transform = Catt.Transform
module Driver = Catt.Driver

let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) ()
let volta = Gpusim.Config.volta ~num_sms:4 ()

let geo ?(grid = (16, 1)) ?(block = (256, 1)) () =
  {
    Analysis.grid_x = fst grid;
    grid_y = snd grid;
    block_x = fst block;
    block_y = snd block;
  }

(* ---------------------------- Affine ------------------------------- *)

let affine = Alcotest.testable Affine.pp Affine.equal

let test_affine_algebra () =
  let tid = Affine.(Affine { (const 0) with c_tx = 1 }) in
  let j = Affine.(Affine (iter "j")) in
  (* 4096*tid + j : the paper's A[i * NX + j] after i = …tid… *)
  let idx = Affine.add (Affine.mul tid (Affine.Affine (Affine.const 4096))) j in
  match idx with
  | Affine.Affine a ->
    Alcotest.(check int) "C_tid" 4096 a.Affine.c_tx;
    Alcotest.(check int) "C_j" 1 (Affine.coeff_of_iter a "j")
  | Affine.Unknown -> Alcotest.fail "should stay affine"

let test_affine_nonlinear_unknown () =
  let tid = Affine.(Affine { (const 0) with c_tx = 1 }) in
  Alcotest.(check bool) "tid*tid unknown" true (Affine.mul tid tid = Affine.Unknown)

let test_affine_div_exact () =
  let v = Affine.(Affine { (const 8) with c_tx = 4 }) in
  (match Affine.div_exact v 4 with
  | Affine.Affine a ->
    Alcotest.(check int) "const" 2 a.Affine.const;
    Alcotest.(check int) "c_tx" 1 a.Affine.c_tx
  | Affine.Unknown -> Alcotest.fail "exact division");
  Alcotest.(check bool) "inexact is unknown" true (Affine.div_exact v 3 = Affine.Unknown)

let test_affine_eval_lane () =
  (* 2-D block 16 wide: lane 17 is (tx=1, ty=1) *)
  let a = { (Affine.const 5) with Affine.c_tx = 10; c_ty = 100 } in
  Alcotest.(check int) "lane 17" (5 + 10 + 100)
    (Affine.eval_lane a ~bdim_x:16 ~lane:17 ~base_linear_tid:0)

let prop_affine_add_matches_eval =
  QCheck.Test.make ~name:"affine add/scale match pointwise eval" ~count:300
    QCheck.(quad (int_range (-50) 50) (int_range (-50) 50) (int_range (-50) 50) (int_range 0 31))
    (fun (c1, t1, t2, lane) ->
      let a = { (Affine.const c1) with Affine.c_tx = t1 } in
      let b = { (Affine.const 7) with Affine.c_tx = t2 } in
      match Affine.add (Affine.Affine a) (Affine.Affine b) with
      | Affine.Affine sum ->
        Affine.eval_lane sum ~bdim_x:32 ~lane ~base_linear_tid:0
        = Affine.eval_lane a ~bdim_x:32 ~lane ~base_linear_tid:0
          + Affine.eval_lane b ~bdim_x:32 ~lane ~base_linear_tid:0
      | Affine.Unknown -> false)

(* --------------------------- Analysis ------------------------------ *)

let analyze src g = Analysis.analyze_kernel (Minicuda.Parser.parse_kernel src) g

let atax_src =
  "#define NX 4096\n\
   __global__ void atax_kernel1(float *A, float *B, float *tmp) {\n\
   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
   if (i < NX) { for (int j = 0; j < NX; j++) { tmp[i] += A[i * NX + j] * B[j]; } }\n\
   }"

let test_analysis_atax_accesses () =
  match analyze atax_src (geo ()) with
  | [ loop ] ->
    Alcotest.(check int) "three deduped accesses" 3 (List.length loop.Analysis.accesses);
    let find arr =
      List.find (fun (a : Analysis.access) -> a.Analysis.array = arr) loop.Analysis.accesses
    in
    (match (find "A").Analysis.index with
    | Affine.Affine a -> Alcotest.(check int) "A's C_tid = NX" 4096 a.Affine.c_tx
    | Affine.Unknown -> Alcotest.fail "A affine");
    (match (find "B").Analysis.index with
    | Affine.Affine a ->
      Alcotest.(check int) "B's C_tid = 0" 0 a.Affine.c_tx;
      Alcotest.(check int) "B's C_j = 1" 1 (Affine.coeff_of_iter a "j")
    | Affine.Unknown -> Alcotest.fail "B affine");
    let tmp = find "tmp" in
    Alcotest.(check bool) "tmp merged ld/st" true
      (tmp.Analysis.is_load && tmp.Analysis.is_store)
  | loops -> Alcotest.failf "expected 1 loop, found %d" (List.length loops)

let test_analysis_irregular_index () =
  let src =
    "__global__ void k(int *col, float *x, float *y) {\n\
     int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
     for (int j = 0; j < 8; j++) { y[i] += x[col[i * 8 + j]]; }\n\
     }"
  in
  match analyze src (geo ()) with
  | [ loop ] ->
    let find arr =
      List.find (fun (a : Analysis.access) -> a.Analysis.array = arr) loop.Analysis.accesses
    in
    Alcotest.(check bool) "x is irregular" true ((find "x").Analysis.index = Affine.Unknown);
    Alcotest.(check bool) "col is affine" true ((find "col").Analysis.index <> Affine.Unknown)
  | _ -> Alcotest.fail "one loop"

let test_analysis_accumulator_widening () =
  (* idx = idx + 32 per iteration: a strided accumulator *)
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     int idx = i;\n\
     float acc = 0.0;\n\
     for (int j = 0; j < 16; j++) { acc += a[idx]; idx = idx + 32; }\n\
     out[i] = acc;\n\
     }"
  in
  match analyze src (geo ()) with
  | [ loop ] -> (
    let a = List.find (fun (x : Analysis.access) -> x.Analysis.array = "a") loop.Analysis.accesses in
    match a.Analysis.index with
    | Affine.Affine aff ->
      Alcotest.(check int) "C_tid" 1 aff.Affine.c_tx;
      Alcotest.(check int) "C_j = 32 (widened)" 32 (Affine.coeff_of_iter aff "j")
    | Affine.Unknown -> Alcotest.fail "accumulator should widen to affine")
  | _ -> Alcotest.fail "one loop"

let test_analysis_nested_loops_one_report () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     for (int c = 0; c < 4; c++) { for (int f = 0; f < 8; f++) { out[i] += a[c * 8 + f]; } }\n\
     }"
  in
  Alcotest.(check int) "one top-level loop" 1 (List.length (analyze src (geo ())))

let test_analysis_sequential_loops () =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     int i = threadIdx.x;\n\
     for (int j = 0; j < 4; j++) { out[i] += a[j]; }\n\
     for (int j = 0; j < 4; j++) { out[i] += a[j + 4]; }\n\
     }"
  in
  Alcotest.(check int) "two reports" 2 (List.length (analyze src (geo ())))

let test_analysis_shared_excluded () =
  let src =
    "__global__ void k(float *a) {\n\
     __shared__ float s[64];\n\
     int i = threadIdx.x;\n\
     for (int j = 0; j < 4; j++) { s[i] += a[i * 64 + j]; }\n\
     }"
  in
  match analyze src (geo ()) with
  | [ loop ] ->
    Alcotest.(check (list string)) "only the global array" [ "a" ]
      (List.map (fun (x : Analysis.access) -> x.Analysis.array) loop.Analysis.accesses)
  | _ -> Alcotest.fail "one loop"

(* --------------------------- Footprint ----------------------------- *)

let req index =
  Footprint.req_warp ~line_bytes:128 ~warp_size:32 ~block_x:256 index

let test_req_warp_eq7 () =
  let with_ctid c = Affine.Affine { (Affine.const 0) with Affine.c_tx = c } in
  Alcotest.(check int) "C_tid=0 -> 1" 1 (req (with_ctid 0));
  Alcotest.(check int) "C_tid=1 -> 1" 1 (req (with_ctid 1));
  Alcotest.(check int) "C_tid=8 -> 8 (paper example)" 8 (req (with_ctid 8));
  Alcotest.(check int) "C_tid=32 -> 32" 32 (req (with_ctid 32));
  Alcotest.(check int) "C_tid=4096 -> 32 (clamped)" 32 (req (with_ctid 4096));
  (* Section 4.2: irregular accesses are fully uncoalesced — one request
     per *thread*, not per warp (the old value 1 was maximally optimistic
     and let irregular CS kernels escape throttling) *)
  Alcotest.(check int) "irregular -> warp_size (uncoalesced)" 32
    (req Affine.Unknown);
  Alcotest.(check int) "irregular scales with warp_size" 16
    (Footprint.req_warp ~line_bytes:128 ~warp_size:16 ~block_x:256
       Affine.Unknown)

let test_req_warp_2d_block () =
  (* 16-wide block: a warp spans ty∈{0,1}; index c_ty*M reaches 2 rows *)
  let a = { (Affine.const 0) with Affine.c_ty = 4096 } in
  Alcotest.(check int) "2 lines for 2 rows" 2
    (Footprint.req_warp ~line_bytes:128 ~warp_size:32 ~block_x:16 (Affine.Affine a))

(* Negative offsets and strides through the sorted-dedup path.  elem = 4B,
   line = 128B, so 32 elements per line and index -32 is exactly
   byte = -line_bytes — the floor-division edge where truncating division
   would merge or split lines spuriously. *)
let test_req_warp_negative_offsets () =
  let aff ?(const = 0) c = Affine.Affine { (Affine.const const) with Affine.c_tx = c } in
  (* idx -32..-1: bytes -128..-4 all live in line -1 (floor, not truncate:
     truncation maps byte -4 to line 0 and would count 2 lines) *)
  Alcotest.(check int) "[-line_bytes, 0) is one line" 1 (req (aff ~const:(-32) 1));
  (* idx -1..30 straddles byte 0: lines {-1, 0} must stay distinct
     (truncation folds byte -4 into line 0 and undercounts to 1) *)
  Alcotest.(check int) "straddling zero -> 2 lines" 2 (req (aff ~const:(-1) 1));
  (* all lanes at the same negative address *)
  Alcotest.(check int) "uniform negative -> 1 line" 1 (req (aff ~const:(-32) 0));
  (* negative unit stride mirrors the positive one: idx 0..-31 touches
     lines {0, -1} *)
  Alcotest.(check int) "stride -1 from 0 -> 2 lines" 2 (req (aff (-1)));
  (* one line per lane in either direction *)
  Alcotest.(check int) "stride -32 fully diverges" 32 (req (aff (-32)));
  (* bytes 0, -32, ..., -992: one more line than the positive mirror
     because byte 0 sits on a boundary and byte -32 is already line -1 *)
  Alcotest.(check int) "stride -8 -> 9 lines" 9 (req (aff (-8)))

let test_reuse_eq6 () =
  let access coeff =
    {
      Analysis.array = "a";
      index = Affine.Affine { (Affine.const 0) with Affine.iters = [ ("j", coeff) ] };
      is_load = true;
      is_store = false;
      innermost_iter = Some "j";
    }
  in
  Alcotest.(check bool) "C_i=1 reuses" true (Footprint.has_reuse ~line_bytes:128 (access 1));
  Alcotest.(check bool) "C_i=32 reuses (boundary)" true
    (Footprint.has_reuse ~line_bytes:128 (access 32));
  Alcotest.(check bool) "C_i=33 does not" false
    (Footprint.has_reuse ~line_bytes:128 (access 33))

let test_footprint_atax () =
  match analyze atax_src (geo ()) with
  | [ loop ] ->
    let fp = Footprint.of_loop ~line_bytes:128 ~warp_size:32 ~block_x:256 loop in
    Alcotest.(check int) "34 lines per warp (32+1+1)" 34 fp.Footprint.req_per_warp;
    Alcotest.(check bool) "has locality" true fp.Footprint.has_locality;
    Alcotest.(check int) "Eq. 8 at 32 warps" (34 * 32)
      (Footprint.size_req_lines fp ~concurrent_warps:32)
  | _ -> Alcotest.fail "one loop"

(* --------------------------- Occupancy ----------------------------- *)

let test_occupancy_configure_no_shared () =
  match Occupancy.configure volta ~tb_threads:256 ~num_regs:16 ~shared_bytes:0 () with
  | Ok occ ->
    Alcotest.(check int) "carveout 0" 0 occ.Occupancy.smem_carveout;
    Alcotest.(check int) "full L1D" (128 * 1024) occ.Occupancy.l1d_bytes;
    Alcotest.(check int) "8 TBs" 8 occ.Occupancy.tbs_per_sm
  | Error e -> Alcotest.fail e

let test_occupancy_configure_shared_eq4 () =
  (* 4KB per TB, 8 concurrent TBs -> needs 32KB; smallest option is 32KB *)
  match Occupancy.configure volta ~tb_threads:256 ~num_regs:16 ~shared_bytes:4096 () with
  | Ok occ ->
    Alcotest.(check int) "carveout 32KB" (32 * 1024) occ.Occupancy.smem_carveout;
    Alcotest.(check int) "L1D 96KB" (96 * 1024) occ.Occupancy.l1d_bytes
  | Error e -> Alcotest.fail e

let test_occupancy_grid_cap () =
  match
    Occupancy.configure volta ~grid_tbs:8 ~tb_threads:256 ~num_regs:16 ~shared_bytes:0 ()
  with
  | Ok occ -> Alcotest.(check int) "8 TBs / 4 SMs = 2" 2 occ.Occupancy.tbs_per_sm
  | Error e -> Alcotest.fail e

let test_occupancy_oversized_shared () =
  match Occupancy.configure volta ~tb_threads:256 ~num_regs:16 ~shared_bytes:(200 * 1024) () with
  | Ok _ -> Alcotest.fail "should not fit"
  | Error _ -> ()

(* --------------------------- Throttle ------------------------------ *)

let fp_with_req ?(reuse = true) req_per_warp =
  let summary =
    {
      Footprint.access =
        {
          Analysis.array = "a";
          index = Affine.Affine (Affine.const 0);
          is_load = true;
          is_store = false;
          innermost_iter = Some "j";
        };
      req_warp = req_per_warp;
      has_reuse = reuse;
      irregular = false;
    }
  in
  {
    Footprint.loop =
      {
        Analysis.loop_id = 0;
        loop_var = "j";
        accesses = [];
        has_barrier = false;
        gaccesses = [];
      };
    summaries = [ summary ];
    req_per_warp;
    shared_lines = 0;
    has_locality = reuse;
    any_irregular = false;
  }

let decide ?(l1d = 32 * 1024) ?(warps = 8) ?(tbs = 4) req =
  Throttle.decide ~line_bytes:128 ~l1d_bytes:l1d ~warps_per_tb:warps ~tbs
    (fp_with_req req)

let test_throttle_fits_untouched () =
  let d = decide 2 in
  Alcotest.(check bool) "no throttle" false d.Throttle.throttled

let test_throttle_no_locality_untouched () =
  let d =
    Throttle.decide ~line_bytes:128 ~l1d_bytes:(32 * 1024) ~warps_per_tb:8 ~tbs:4
      (fp_with_req ~reuse:false 1000)
  in
  Alcotest.(check bool) "nothing to preserve" false d.Throttle.throttled

let test_throttle_atax_paper_numbers () =
  (* the paper's ATAX#1: 34 lines/warp, (8,4) baseline.
     max L1D (here 32KB=256 lines): 34*32w=1088 -> N=4 gives 34*8=272 no,
     wait: N=2 -> 16 warps -> 544; N=4 -> 8 warps -> 272; N=8 -> 4 warps ->
     136 <= 256. Under 128KB (1024 lines): N=2 -> 544 <= 1024. *)
  let d32 = decide ~l1d:(32 * 1024) 34 in
  Alcotest.(check int) "N at 32KB" 8 d32.Throttle.n;
  Alcotest.(check int) "TLP warps" 1 d32.Throttle.active_warps_per_tb;
  let d128 = decide ~l1d:(128 * 1024) 34 in
  Alcotest.(check int) "N at 128KB" 2 d128.Throttle.n;
  Alcotest.(check int) "TLP warps" 4 d128.Throttle.active_warps_per_tb

let test_throttle_tb_level () =
  (* even one warp per TB overflows -> reduce TBs *)
  let d = decide ~l1d:(32 * 1024) ~warps:8 ~tbs:4 100 in
  (* 100 lines: 1 warp x 4 TBs = 400 > 256; 1 x 2 = 200 fits -> m = 2 *)
  Alcotest.(check int) "n maxed" 8 d.Throttle.n;
  Alcotest.(check int) "m" 2 d.Throttle.m;
  Alcotest.(check int) "2 TBs" 2 d.Throttle.active_tbs

let test_throttle_unresolvable () =
  (* > 256 lines for a single warp: the CORR case.  The "even one warp
     thrashes" fallback must hand back the exact baseline TLP, not a
     half-applied split. *)
  let d = decide ~l1d:(32 * 1024) 300 in
  Alcotest.(check bool) "unresolved" false d.Throttle.resolved;
  Alcotest.(check bool) "left untouched" false d.Throttle.throttled;
  Alcotest.(check int) "n back to 1" 1 d.Throttle.n;
  Alcotest.(check int) "m back to 0" 0 d.Throttle.m;
  Alcotest.(check int) "baseline warps" 8 d.Throttle.active_warps_per_tb;
  Alcotest.(check int) "baseline TBs" 4 d.Throttle.active_tbs

let test_throttle_single_warp_tbs () =
  (* warps_per_tb = 1: no divisor > 1 exists, so phase 1 can never fire
     and contention goes straight to the TB phase *)
  let d = decide ~l1d:(32 * 1024) ~warps:1 ~tbs:4 100 in
  (* 100 lines x 4 TBs = 400 > 256; 2 TBs = 200 fits -> m = 2 *)
  Alcotest.(check bool) "throttled" true d.Throttle.throttled;
  Alcotest.(check bool) "resolved" true d.Throttle.resolved;
  Alcotest.(check int) "m" 2 d.Throttle.m;
  Alcotest.(check int) "2 TBs" 2 d.Throttle.active_tbs;
  Alcotest.(check int) "1 warp" 1 d.Throttle.active_warps_per_tb;
  (* and a fitting footprint is simply left alone *)
  let d = decide ~l1d:(32 * 1024) ~warps:1 ~tbs:4 10 in
  Alcotest.(check bool) "fits untouched" false d.Throttle.throttled

let test_throttle_single_tb () =
  (* tbs = 1: the TB phase has no room (m ranges over 1..tbs-1 = empty),
     so either a warp split resolves it or nothing does *)
  let d = decide ~l1d:(32 * 1024) ~warps:8 ~tbs:1 100 in
  (* 100 lines: 8 warps = 800 > 256; n=4 -> 2 warps -> 200 fits *)
  Alcotest.(check int) "n" 4 d.Throttle.n;
  Alcotest.(check int) "m" 0 d.Throttle.m;
  Alcotest.(check bool) "resolved" true d.Throttle.resolved;
  (* too big for even one warp: unresolved, baseline kept *)
  let d = decide ~l1d:(32 * 1024) ~warps:8 ~tbs:1 300 in
  Alcotest.(check bool) "unresolved" false d.Throttle.resolved;
  Alcotest.(check bool) "untouched" false d.Throttle.throttled;
  Alcotest.(check int) "baseline TB kept" 1 d.Throttle.active_tbs

let test_throttle_single_warp_single_tb () =
  (* (1,1) is the floor of the search space: any overflow is unresolved *)
  let d = decide ~l1d:(32 * 1024) ~warps:1 ~tbs:1 300 in
  Alcotest.(check bool) "unresolved" false d.Throttle.resolved;
  Alcotest.(check bool) "untouched" false d.Throttle.throttled;
  Alcotest.(check int) "1 warp" 1 d.Throttle.active_warps_per_tb;
  Alcotest.(check int) "1 TB" 1 d.Throttle.active_tbs

let test_throttle_divisors () =
  Alcotest.(check (list int)) "8" [ 1; 2; 4; 8 ] (Throttle.divisors 8);
  Alcotest.(check (list int)) "6" [ 1; 2; 3; 6 ] (Throttle.divisors 6);
  Alcotest.(check (list int)) "1" [ 1 ] (Throttle.divisors 1)

let prop_throttle_result_fits =
  QCheck.Test.make ~name:"Eq. 9 result footprint fits when resolved+throttled"
    ~count:300
    QCheck.(triple (int_range 1 400) (oneofl [ 1; 2; 4; 6; 8; 16 ]) (int_range 1 16))
    (fun (req, warps, tbs) ->
      let d =
        Throttle.decide ~line_bytes:128 ~l1d_bytes:(32 * 1024) ~warps_per_tb:warps
          ~tbs (fp_with_req req)
      in
      if d.Throttle.resolved && d.Throttle.throttled then
        req * d.Throttle.active_warps_per_tb * d.Throttle.active_tbs * 128
        <= 32 * 1024
      else true)

(* -------------------------- Transform ------------------------------ *)

let parse k = Minicuda.Parser.parse_kernel k

let test_transform_warp_split_structure () =
  let k = parse atax_src in
  let t =
    Transform.warp_throttle k ~loop_id:0 ~n:4 ~warps_per_tb:8 ~warp_size:32
      ~one_dim_block:true
  in
  (* 4 guarded copies + 4 barriers *)
  let barriers =
    Minicuda.Ast.fold_block
      (fun acc s -> if s.Minicuda.Ast.sk = Minicuda.Ast.Syncthreads then acc + 1 else acc)
      0 t.Minicuda.Ast.body
  in
  Alcotest.(check int) "4 barriers" 4 barriers;
  Alcotest.(check int) "4 loop copies" 4 (Transform.count_top_loops t)

let test_transform_invalid_loop_id () =
  let k = parse atax_src in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Transform.warp_throttle k ~loop_id:7 ~n:2 ~warps_per_tb:8 ~warp_size:32
            ~one_dim_block:true);
       false
     with Invalid_argument _ -> true)

let test_transform_plan_hits_later_loops () =
  (* two loops; splitting loop 0 must not eat loop 1's id *)
  let src =
    "__global__ void k(float *a, float *b) {\n\
     int i = threadIdx.x;\n\
     for (int j = 0; j < 4; j++) { a[i] += 1.0; }\n\
     for (int j = 0; j < 4; j++) { b[i] += 1.0; }\n\
     }"
  in
  let t =
    Transform.warp_throttle_plan (parse src) ~plan:[ (0, 2); (1, 4) ]
      ~warps_per_tb:8 ~warp_size:32 ~one_dim_block:true
  in
  Alcotest.(check int) "2 + 4 copies" 6 (Transform.count_top_loops t)

let test_transform_tb_throttle_shape () =
  let k = parse atax_src in
  let t = Transform.tb_throttle k ~dummy_elems:512 in
  match List.map (fun s -> s.Minicuda.Ast.sk) t.Minicuda.Ast.body with
  | Minicuda.Ast.Shared_decl (Minicuda.Ast.Float, name, 512) :: Minicuda.Ast.Assign _ :: _ ->
    Alcotest.(check string) "dummy name" Transform.dummy_array_name name
  | _ -> Alcotest.fail "expected dummy shared decl then keep-alive store"

let test_plan_tb_throttle_reaches_target () =
  List.iter
    (fun target ->
      match
        Transform.plan_tb_throttle volta ~tb_threads:256 ~num_regs:16
          ~shared_bytes:0 ~target_tbs:target
      with
      | None -> Alcotest.failf "no plan for target %d" target
      | Some (carveout, dummy_bytes) ->
        let achieved =
          Gpusim.Cta_scheduler.max_tbs_per_sm volta ~tb_threads:256 ~num_regs:16
            ~shared_bytes:dummy_bytes ~smem_carveout:carveout
        in
        Alcotest.(check int) (Printf.sprintf "target %d" target) target achieved)
    [ 1; 2; 3; 4; 6 ]

(* semantic preservation: the throttled kernel computes the same result *)
let run_both kernel transformed ~arrays ~grid ~block =
  let run k =
    let prog = Gpusim.Codegen.compile_kernel k in
    let dev = Gpusim.Gpu.create cfg in
    List.iter (fun (n, d) -> Gpusim.Gpu.upload dev n d) arrays;
    let args = List.map (fun (n, _) -> Gpusim.Gpu.Arr n) arrays in
    ignore (Gpusim.Gpu.launch dev (Gpusim.Gpu.default_launch ~prog ~grid ~block args));
    List.map (fun (n, _) -> Array.copy (Gpusim.Gpu.get dev n)) arrays
  in
  (run kernel, run transformed)

(* a small ATAX so simulation-based tests stay fast *)
let small_atax_src =
  "#define NX 256\n\
   __global__ void atax_small(float *A, float *B, float *tmp) {\n\
   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
   if (i < NX) { for (int j = 0; j < NX; j++) { tmp[i] += A[i * NX + j] * B[j]; } }\n\
   }"

let small_atax_arrays seed =
  let rng = Gpu_util.Rng.create seed in
  [
    ("A", Array.init (256 * 256) (fun _ -> Gpu_util.Rng.float rng 1.));
    ("B", Array.init 256 (fun _ -> Gpu_util.Rng.float rng 1.));
    ("tmp", Array.make 256 0.);
  ]

let test_transform_preserves_semantics_warp () =
  let k = parse small_atax_src in
  let t =
    Transform.warp_throttle k ~loop_id:0 ~n:4 ~warps_per_tb:8 ~warp_size:32
      ~one_dim_block:true
  in
  let before, after =
    run_both k t ~arrays:(small_atax_arrays 3) ~grid:(1, 1) ~block:(256, 1)
  in
  List.iter2
    (fun b a -> Alcotest.(check bool) "same values" true (b = a))
    before after

let test_transform_preserves_semantics_tb () =
  let k = parse small_atax_src in
  let t = Transform.tb_throttle k ~dummy_elems:1024 in
  let before, after =
    run_both k t ~arrays:(small_atax_arrays 4) ~grid:(1, 1) ~block:(256, 1)
  in
  List.iter2
    (fun b a -> Alcotest.(check bool) "same values" true (b = a))
    before after

(* ---------------------------- Driver ------------------------------- *)

let test_driver_atax_table3 () =
  (* the paper's Table 3 row, at our scale: baseline (8,4); 32KB on-chip
     gives (4,4) at 128KB-equivalent… checked against the Volta preset *)
  let kernel = parse atax_src in
  match Driver.analyze volta kernel (geo ()) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (pair int int)) "baseline (8,4)" (8, 4) t.Driver.baseline_tlp;
    Alcotest.(check (pair int int)) "CATT picks (4,4) at max L1D" (4, 4)
      (Driver.selected_tlp t ~loop_id:0)

let test_driver_atax_32kb () =
  let kernel = parse atax_src in
  let small = Gpusim.Config.with_onchip volta (32 * 1024) in
  match Driver.analyze small kernel (geo ()) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check (pair int int)) "CATT picks (1,4) at 32KB" (1, 4)
      (Driver.selected_tlp t ~loop_id:0)

let test_driver_ci_kernel_untouched () =
  let src =
    "__global__ void gemm(float *A, float *B, float *C) {\n\
     int j = blockIdx.x * blockDim.x + threadIdx.x;\n\
     int i = blockIdx.y * blockDim.y + threadIdx.y;\n\
     float acc = 0.0;\n\
     for (int k = 0; k < 128; k++) { acc += A[i * 128 + k] * B[k * 128 + j]; }\n\
     C[i * 128 + j] = acc;\n\
     }"
  in
  match Driver.analyze cfg (parse src) (geo ~grid:(4, 16) ~block:(32, 8) ()) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "no loop throttled" true
      (List.for_all
         (fun (l : Driver.loop_decision) ->
           not l.Driver.decision.Throttle.throttled)
         t.Driver.loops);
    Alcotest.(check bool) "source unchanged" true
      (Minicuda.Ast.equal_kernel (parse src) t.Driver.transformed)

let test_driver_analysis_is_fast () =
  let kernel = parse atax_src in
  match Driver.analyze volta kernel (geo ()) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "< 100ms (paper: 1-2s)" true (t.Driver.analysis_seconds < 0.1)

let tests =
  [
    ( "catt.affine",
      [
        Alcotest.test_case "algebra" `Quick test_affine_algebra;
        Alcotest.test_case "nonlinear is unknown" `Quick test_affine_nonlinear_unknown;
        Alcotest.test_case "exact division" `Quick test_affine_div_exact;
        Alcotest.test_case "lane evaluation" `Quick test_affine_eval_lane;
        QCheck_alcotest.to_alcotest prop_affine_add_matches_eval;
      ] );
    ( "catt.analysis",
      [
        Alcotest.test_case "ATAX accesses" `Quick test_analysis_atax_accesses;
        Alcotest.test_case "irregular index" `Quick test_analysis_irregular_index;
        Alcotest.test_case "accumulator widening" `Quick test_analysis_accumulator_widening;
        Alcotest.test_case "nested loops" `Quick test_analysis_nested_loops_one_report;
        Alcotest.test_case "sequential loops" `Quick test_analysis_sequential_loops;
        Alcotest.test_case "shared excluded" `Quick test_analysis_shared_excluded;
      ] );
    ( "catt.footprint",
      [
        Alcotest.test_case "REQ_warp (Eq. 7)" `Quick test_req_warp_eq7;
        Alcotest.test_case "REQ_warp 2-D block" `Quick test_req_warp_2d_block;
        Alcotest.test_case "REQ_warp negative offsets" `Quick
          test_req_warp_negative_offsets;
        Alcotest.test_case "reuse (Eq. 6)" `Quick test_reuse_eq6;
        Alcotest.test_case "ATAX footprint (Eq. 8)" `Quick test_footprint_atax;
      ] );
    ( "catt.occupancy",
      [
        Alcotest.test_case "no shared" `Quick test_occupancy_configure_no_shared;
        Alcotest.test_case "carveout choice (Eq. 4)" `Quick test_occupancy_configure_shared_eq4;
        Alcotest.test_case "grid cap" `Quick test_occupancy_grid_cap;
        Alcotest.test_case "oversized shared" `Quick test_occupancy_oversized_shared;
      ] );
    ( "catt.throttle",
      [
        Alcotest.test_case "fits: untouched" `Quick test_throttle_fits_untouched;
        Alcotest.test_case "no locality: untouched" `Quick test_throttle_no_locality_untouched;
        Alcotest.test_case "ATAX factors" `Quick test_throttle_atax_paper_numbers;
        Alcotest.test_case "TB-level (Eq. 9 phase 2)" `Quick test_throttle_tb_level;
        Alcotest.test_case "unresolvable (CORR)" `Quick test_throttle_unresolvable;
        Alcotest.test_case "single-warp TBs" `Quick test_throttle_single_warp_tbs;
        Alcotest.test_case "single TB" `Quick test_throttle_single_tb;
        Alcotest.test_case "(1,1) floor" `Quick test_throttle_single_warp_single_tb;
        Alcotest.test_case "divisors" `Quick test_throttle_divisors;
        QCheck_alcotest.to_alcotest prop_throttle_result_fits;
      ] );
    ( "catt.transform",
      [
        Alcotest.test_case "warp split structure" `Quick test_transform_warp_split_structure;
        Alcotest.test_case "invalid loop id" `Quick test_transform_invalid_loop_id;
        Alcotest.test_case "plan hits later loops" `Quick test_transform_plan_hits_later_loops;
        Alcotest.test_case "TB throttle shape" `Quick test_transform_tb_throttle_shape;
        Alcotest.test_case "TB plan reaches target" `Quick test_plan_tb_throttle_reaches_target;
        Alcotest.test_case "warp transform preserves semantics" `Quick
          test_transform_preserves_semantics_warp;
        Alcotest.test_case "TB transform preserves semantics" `Quick
          test_transform_preserves_semantics_tb;
      ] );
    ( "catt.driver",
      [
        Alcotest.test_case "ATAX matches Table 3 (max L1D)" `Quick test_driver_atax_table3;
        Alcotest.test_case "ATAX matches Table 3 (32KB)" `Quick test_driver_atax_32kb;
        Alcotest.test_case "CI kernel untouched" `Quick test_driver_ci_kernel_untouched;
        Alcotest.test_case "analysis overhead" `Quick test_driver_analysis_is_fast;
      ] );
  ]
