module Ast = Minicuda.Ast

type loop_decision = {
  footprint : Footprint.loop_footprint;
  decision : Throttle.decision;
}

type t = {
  kernel : Ast.kernel;
  geometry : Analysis.geometry;
  occupancy : Occupancy.t;
  loops : loop_decision list;
  transformed : Ast.kernel;
  tb_throttle_plan : (int * int) option;
  final_carveout : int;
  baseline_tlp : int * int;
  resident_tbs : int;  (* TBs per SM after any TB-level throttling *)
  gate_degraded : bool;
  analysis_seconds : float;
}

let decide_all ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs footprints =
  Obs.Span.with_span "catt.decide"
    ~attrs:
      [
        ("l1d_bytes", Obs.Span.Int l1d_bytes);
        ("warps_per_tb", Obs.Span.Int warps_per_tb);
        ("tbs", Obs.Span.Int tbs);
      ]
    (fun _ ->
      List.map
        (fun footprint ->
          let decision =
            (* loops that rendezvous at a barrier cannot be split into warp
               groups; leave them at full TLP *)
            if footprint.Footprint.loop.Analysis.has_barrier then
              Throttle.no_throttle ~warps_per_tb ~tbs
            else
              Throttle.decide ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs
                footprint
          in
          { footprint; decision })
        footprints)

let max_m loops =
  List.fold_left (fun acc l -> max acc l.decision.Throttle.m) 0 loops

(* When some loop needs TB-level throttling, the dummy shared allocation
   changes the carveout and thus shrinks the L1D, so every decision has to
   be re-taken under the new capacity and TB count; escalate [m] until a
   consistent configuration is found. *)
let escalate cfg ~tb_threads ~num_regs ~shared_bytes ~line_bytes ~warps_per_tb
    ~tbs footprints ~first_m =
  let onchip = cfg.Gpusim.Config.onchip_bytes in
  let rec attempt m =
    if m > tbs - 1 then None
    else
      let target = tbs - m in
      match
        Transform.plan_tb_throttle cfg ~tb_threads ~num_regs ~shared_bytes
          ~target_tbs:target
      with
      | None -> attempt (m + 1)
      | Some (carveout, dummy_bytes) ->
        let l1d_bytes = onchip - carveout in
        let loops =
          decide_all ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs:target
            footprints
        in
        if max_m loops = 0 then Some (loops, (carveout, dummy_bytes), target)
        else attempt (m + 1)
  in
  attempt first_m

let analyze ?(model = `Eq8) (cfg : Gpusim.Config.t) (kernel : Ast.kernel)
    (geometry : Analysis.geometry) =
  Obs.Span.with_span "catt.analyze"
    ~attrs:[ ("kernel", Obs.Span.Str kernel.Ast.kernel_name) ]
  @@ fun analyze_span ->
  let started = Unix.gettimeofday () in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let tb_threads = geometry.Analysis.block_x * geometry.Analysis.block_y in
  let grid_tbs = geometry.Analysis.grid_x * geometry.Analysis.grid_y in
  let num_regs = prog.Gpusim.Bytecode.num_regs in
  let shared_bytes = prog.Gpusim.Bytecode.shared_bytes in
  match
    Occupancy.configure cfg ~grid_tbs ~tb_threads ~num_regs ~shared_bytes ()
  with
  | Error msg -> Error msg
  | Ok occ ->
    let line_bytes = cfg.Gpusim.Config.line_bytes in
    let warp_size = cfg.Gpusim.Config.warp_size in
    let warps_per_tb = occ.Occupancy.warps_per_tb in
    let tbs = occ.Occupancy.tbs_per_sm in
    let footprints =
      Obs.Span.with_span "catt.footprint" (fun fp_span ->
        let block_x = geometry.Analysis.block_x in
        let reports = Analysis.analyze_kernel kernel geometry in
        let of_loop =
          match model with
          | `Eq8 -> Footprint.of_loop ~line_bytes ~warp_size ~block_x
          | `Sa -> Footprint.of_loop_sa ~line_bytes ~warp_size ~block_x ~tbs
        in
        let fps = List.map of_loop reports in
        Option.iter
          (fun s -> Obs.Span.add_attr s "loops" (Obs.Span.Int (List.length fps)))
          fp_span;
        fps)
    in
    let initial =
      decide_all ~line_bytes ~l1d_bytes:occ.Occupancy.l1d_bytes ~warps_per_tb
        ~tbs footprints
    in
    let loops, tb_throttle_plan, final_carveout, resident_tbs =
      let m = max_m initial in
      if m = 0 then (initial, None, occ.Occupancy.smem_carveout, tbs)
      else
        match
          escalate cfg ~tb_threads ~num_regs ~shared_bytes ~line_bytes
            ~warps_per_tb ~tbs footprints ~first_m:m
        with
        | Some (loops, plan, target) -> (loops, Some plan, fst plan, target)
        | None ->
          (* TB throttling cannot resolve the contention: fall back to the
             strongest warp-level throttling and mark the rest unresolved *)
          let demoted =
            List.map
              (fun l ->
                if l.decision.Throttle.m > 0 then
                  {
                    l with
                    decision =
                      {
                        l.decision with
                        Throttle.m = 0;
                        resolved = false;
                        throttled = l.decision.Throttle.n > 1;
                        active_tbs = tbs;
                      };
                  }
                else l)
              initial
          in
          (demoted, None, occ.Occupancy.smem_carveout, tbs)
    in
    let one_dim_block = geometry.Analysis.block_y = 1 in
    let plan =
      List.filter_map
        (fun l ->
          if l.decision.Throttle.throttled && l.decision.Throttle.n > 1 then
            Some
              ( l.footprint.Footprint.loop.Analysis.loop_id,
                l.decision.Throttle.n )
          else None)
        loops
    in
    let build plan =
      let t =
        if plan = [] then kernel
        else
          Transform.warp_throttle_plan kernel ~plan ~warps_per_tb ~warp_size
            ~one_dim_block
      in
      match tb_throttle_plan with
      | Some (_, dummy_bytes) ->
        Transform.tb_throttle t ~dummy_elems:(max 1 (dummy_bytes / 4))
      | None -> t
    in
    let gate t = Sanitize.Check.gate geometry ~original:kernel ~transformed:t in
    (* The sanitizer has the last word.  A warp split plants barriers, and
       a loop sitting under thread-divergent control flow (common in
       irregular kernels, whose Eq. 7 footprint is now large enough to ask
       for throttling) cannot legally take one.  Degrade like the BFTT
       path: whole plan -> per-loop-gated plan -> no splits, and demote the
       decisions of every dropped loop to unresolved-at-full-TLP so Table 3
       reports what actually runs. *)
    let plan, transformed, gate_failed =
      let full = build plan in
      match gate full with
      | Ok () -> (plan, full, false)
      | Error _ ->
        let kept =
          List.filter
            (fun (loop_id, n) ->
              match
                gate
                  (Transform.warp_throttle kernel ~loop_id ~n ~warps_per_tb
                     ~warp_size ~one_dim_block)
              with
              | Ok () -> true
              | Error _ -> false)
            plan
        in
        let combined = build kept in
        (match gate combined with
        | Ok () -> (kept, combined, true)
        | Error _ -> (
          (* even the accepted single-loop splits interact badly together:
             keep only the TB-level pad, or nothing *)
          let pad_only = build [] in
          match gate pad_only with
          | Ok () -> ([], pad_only, true)
          | Error _ -> ([], kernel, true)))
    in
    let loops =
      if not gate_failed then loops
      else
        List.map
          (fun l ->
            let loop_id = l.footprint.Footprint.loop.Analysis.loop_id in
            let d = l.decision in
            if
              d.Throttle.throttled && d.Throttle.n > 1
              && not (List.mem_assoc loop_id plan)
            then
              (* the warp split was refused, but a TB-level pad (if any)
                 still throttles this loop; without the split the footprint
                 is no longer proven to fit, so it is unresolved *)
              {
                l with
                decision =
                  {
                    d with
                    Throttle.n = 1;
                    throttled = tb_throttle_plan <> None || d.Throttle.m > 0;
                    resolved = false;
                    active_warps_per_tb = warps_per_tb;
                  };
              }
            else l)
          loops
    in
    Option.iter
      (fun s ->
        Obs.Span.add_attr s "throttled_loops"
          (Obs.Span.Int
             (List.length
                (List.filter (fun l -> l.decision.Throttle.throttled) loops)));
        Obs.Span.add_attr s "gate_degraded" (Obs.Span.Bool gate_failed))
      analyze_span;
    Ok
      {
        kernel;
        geometry;
        occupancy = occ;
        loops;
        transformed;
        tb_throttle_plan;
        final_carveout;
        baseline_tlp = (warps_per_tb, tbs);
        resident_tbs;
        gate_degraded = gate_failed;
        analysis_seconds = Unix.gettimeofday () -. started;
      }

let selected_tlp t ~loop_id =
  match
    List.find_opt
      (fun l -> l.footprint.Footprint.loop.Analysis.loop_id = loop_id)
      t.loops
  with
  | None -> t.baseline_tlp
  | Some l ->
    let d = l.decision in
    if d.Throttle.throttled then
      (d.Throttle.active_warps_per_tb, min d.Throttle.active_tbs t.resident_tbs)
    else
      let warps, _ = t.baseline_tlp in
      (warps, t.resident_tbs)
