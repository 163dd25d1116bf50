(** [grid-cold]: the paper's grid regenerated in process.  Every
    registry workload under baseline, CATT and CIAO, one closed-loop
    caller, no pool, the disk cache off and the memo cleared before each
    cell, so every cell simulates.  The seed sets the cell order. *)

open Common
module Gpu = Gpusim.Gpu

let schemes = [ Scheme.Baseline; Scheme.Catt; Scheme.Ciao ]

(** The cells in the order of pass [pass] of a run seeded [seed]. *)
let cells ?(pass = 0) seed =
  shuffle
    (Gpu_util.Rng.create ((seed * 1009) + pass))
    (cells_of Workloads.Registry.all schemes)

(** Everything that happens before the first timed cell. *)
let setup seed =
  Experiments.Cache.enabled := false;
  let reference = load_reference () in
  let cells = cells seed in
  Runner.clear_memo ();
  (reference, cells)

let exec_cell c =
  Runner.clear_memo ();
  Runner.exec (Runner.Request.make cfg c.w c.scheme)

(* one pass over every cell, checking each against the reference, with
   each cell's wall and CPU time; each cell starts from a collected heap,
   so the garbage a cell inherits does not depend on the order *)
let run_pass ~reference ~tally cells =
  let t0 = now () in
  let times =
    List.map
      (fun c ->
        Gc.full_major ();
        let cpu0 = cpu_s 0 in
        let r, dt = time (fun () -> exec_cell c) in
        let cpu = cpu_s 0 -. cpu0 in
        let ok =
          match r with
          | Error msg ->
            complain "grid-cold: %s: %s" (cell_key c) msg;
            false
          | Ok run -> (
            match check_run reference c run with
            | Ok () -> true
            | Error msg ->
              complain "grid-cold: %s" msg;
              false)
        in
        Rules.note tally ok;
        (cell_key c, (dt, cpu)))
      cells
  in
  (times, now () -. t0)

let end_to_end ~setup_s ~seed ~seconds =
  let reference, _ = setup seed in
  let tally = Rules.tally () in
  let ps =
    passes ~seconds ~min_passes:1 ~wall:snd (fun pass ->
        run_pass ~reference ~tally (cells ~pass seed))
  in
  (* a cell's time is its median over the passes, which ran it in
     different orders: a burst of interference from outside hits one
     pass, not the median *)
  let by f =
    Rules.median_by_key
      (List.concat_map (fun (p, _) -> List.map (fun (k, t) -> (k, f t)) p) ps)
  in
  let times = by fst and cpus = by snd in
  let total = List.fold_left (fun a (_, t) -> a +. t) 0. times in
  let cpu_total = List.fold_left (fun a (_, t) -> a +. t) 0. cpus in
  let winstr =
    List.fold_left
      (fun a (k, _) -> a + (Hashtbl.find reference.cells k).instructions)
      0 times
  in
  (* a cell's latency on the CPU clock: the caller is one thread, so on a
     core of its own the two clocks agree, and the CPU clock leaves out
     the time the host runs something else *)
  let ms = List.map (fun (_, t) -> t *. 1e3) cpus in
  let tail = Rules.tail ms in
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "cpu_ms_per_op" "ms"
        (cpu_total *. 1e3 /. float_of_int (List.length cpus))
        ~note:(Printf.sprintf "(%d cells, median of %d passes)"
                 (List.length cpus) (List.length ps));
      metric "latency_p50_ms" "ms" (Rules.median ms);
      metric "latency_tail_ms" "ms" tail.Rules.value
        ~note:(Printf.sprintf "(p%.1f, %d samples beyond, n=%d)" tail.Rules.pct
                 tail.Rules.beyond tail.Rules.samples);
      metric "peak_rss_mb" "MB" (peak_rss_mb 0);
    ]
  in
  info ~workload:"grid-cold" "throughput_ops_s" "1/s"
    (float_of_int (List.length times) /. total);
  info ~workload:"grid-cold" "sim_winstr_per_s" "1/s"
    (float_of_int winstr /. total);
  (tally, metrics)

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(* benchmark-side spans around each layer call of one cell *)
type recorder = { mutable spans : Rules.span list; mutable next : int }

let span rec_ ~parent layer f =
  let id = rec_.next in
  rec_.next <- id + 1;
  let start = now () in
  let r = f id in
  rec_.spans <- { Rules.id; parent; layer; start; stop = now () } :: rec_.spans;
  r

let runtime_throttle = function
  | Scheme.Ciao -> `Ciao
  | Scheme.Ata -> `Ata
  | Scheme.Dynamic -> `Dyncta
  | Scheme.CcwsSched -> `Ccws
  | Scheme.DawsSched -> `Daws
  | Scheme.Swl k -> `Swl k
  | Scheme.Baseline | Scheme.Catt | Scheme.CattSa | Scheme.Fixed _
  | Scheme.Bypass ->
    `None

(** One cell through the layer functions in the order {!Runner.exec}
    calls them: prepare, device set-up, each launch, the oracle, the
    cache encoding.  Returns the run and the bytes encoded. *)
let replay rec_ c =
  let w = c.w in
  span rec_ ~parent:None "cell" @@ fun root ->
  let parent = Some root in
  let prepared =
    span rec_ ~parent "runner.prepare" (fun _ ->
        Runner.prepare_all cfg w c.scheme)
  in
  match prepared with
  | Error msg -> Error msg
  | Ok prepared ->
    let dev =
      span rec_ ~parent "workloads.setup" (fun _ ->
          let dev = Gpu.create cfg in
          w.Workloads.Workload.setup dev (Gpu_util.Rng.create Runner.seed);
          dev)
    in
    let acc = ref [] in
    List.iter
      (fun (l : Workloads.Workload.kernel_launch) ->
        let p = List.assoc l.Workloads.Workload.kernel_name prepared in
        let launch =
          Gpu.default_launch ?smem_carveout:p.Runner.carveout
            ~runtime_throttle:(runtime_throttle c.scheme)
            ~prog:p.Runner.prog ~grid:l.Workloads.Workload.grid
            ~block:l.Workloads.Workload.block l.Workloads.Workload.args
        in
        let stats, _ =
          span rec_ ~parent "gpusim.launch" (fun _ -> Gpu.launch dev launch)
        in
        Runner.note_kernel acc ~name:l.Workloads.Workload.kernel_name
          ~tlp:p.Runner.prepared_tlp ~trace:None ~profile:None stats)
      w.Workloads.Workload.launches;
    let verified =
      span rec_ ~parent "workloads.verify" (fun _ ->
          w.Workloads.Workload.verify dev)
    in
    let kernels = List.map snd !acc in
    let run =
      {
        Runner.workload = w.Workloads.Workload.name;
        scheme = c.scheme;
        kernels;
        total_cycles =
          List.fold_left
            (fun t (ks : Runner.kernel_stats) ->
              t + ks.Runner.stats.Gpusim.Stats.cycles)
            0 kernels;
        verified;
        catt_analyses = [];
        manifest = None;
      }
    in
    let bytes =
      span rec_ ~parent "json.encode" (fun _ ->
          String.length (Json.to_string ~pretty:true (Runner.run_to_json run)))
    in
    Ok (run, bytes)

(* per-kernel front-end costs, timed by calling each layer directly *)
type front = {
  mutable parse_s : float list;  (** per cell *)
  mutable codegen_s : float list;  (** per kernel *)
  mutable analyze_s : float list;  (** per kernel, CATT cells *)
}

let time_front front c =
  let _, dt = time (fun () -> Workloads.Workload.parse c.w) in
  front.parse_s <- dt :: front.parse_s;
  List.iter
    (fun (name, kernel) ->
      let _, dt = time (fun () -> Gpusim.Codegen.compile_kernel kernel) in
      front.codegen_s <- dt :: front.codegen_s;
      if c.scheme = Scheme.Catt then begin
        let geo = Runner.geometry_of_kernel c.w name in
        let _, dt = time (fun () -> Catt.Driver.analyze cfg kernel geo) in
        front.analyze_s <- dt :: front.analyze_s
      end)
    (Workloads.Workload.kernels c.w)

let traced ~seed =
  let reference, cells = setup seed in
  let tally = Rules.tally () in
  (* the untraced pass: plain Runner.exec, the overhead baseline and the
     stats every replay must match *)
  let execs, exec_wall =
    time (fun () ->
        List.map
          (fun c ->
            match exec_cell c with
            | Ok r -> Some r
            | Error msg ->
              complain "grid-cold: %s: %s" (cell_key c) msg;
              None)
          cells)
  in
  let gc = Gc_events.in_process () in
  let rec_ = { spans = []; next = 0 } in
  let per_cell = ref [] in
  let encoded = ref [] in
  let sim = ref (0, 0, 0, 0, 0) in
  let (), replay_wall =
    time (fun () ->
        List.iter2
          (fun c exec_run ->
            rec_.spans <- [];
            let ok =
              match replay rec_ c with
              | Error msg ->
                complain "grid-cold: replay %s: %s" (cell_key c) msg;
                false
              | Ok (run, bytes) -> (
                encoded := float_of_int bytes :: !encoded;
                let cyc, ins, acc, hit, mis = counts run in
                let a, b, c', d, e = !sim in
                sim := (a + cyc, b + ins, c' + acc, d + hit, e + mis);
                match (check_run reference c run, exec_run) with
                | Error msg, _ ->
                  complain "grid-cold: replay %s" msg;
                  false
                | Ok (), None -> false
                | Ok (), Some r ->
                  if counts r <> counts run then begin
                    complain "grid-cold: replay %s differs from Runner.exec"
                      (cell_key c);
                    false
                  end
                  else true)
            in
            Rules.note tally ok;
            per_cell := rec_.spans :: !per_cell)
          cells execs)
  in
  let gcs = Gc_events.finish gc in
  let front = { parse_s = []; codegen_s = []; analyze_s = [] } in
  List.iter (time_front front) cells;
  (* fold every cell's spans: self time per layer, residual per cell *)
  let totals = Hashtbl.create 8 in
  let add l v =
    Hashtbl.replace totals l (v +. Option.value ~default:0. (Hashtbl.find_opt totals l))
  in
  let op_time = ref 0. and residual = ref 0. in
  List.iter
    (fun spans ->
      let root, layers =
        List.partition (fun (s : Rules.span) -> s.Rules.parent = None) spans
      in
      let total =
        List.fold_left (fun a (s : Rules.span) -> a +. s.Rules.stop -. s.Rules.start) 0. root
      in
      op_time := !op_time +. total;
      (* the cell span's own self time is the residual *)
      let layers, res = Rules.fold ~total layers in
      List.iter (fun (l, v) -> add l v) layers;
      residual := !residual +. res)
    !per_cell;
  let n = float_of_int (List.length cells) in
  let layer l = Option.value ~default:0. (Hashtbl.find_opt totals l) in
  let cycles, winstr, l1_acc, l1_hits, _ = !sim in
  let us xs = Rules.mean (List.map (fun s -> s *. 1e6) xs) in
  let pct v = 100. *. v /. !op_time in
  let metrics =
    [
      metric "gpusim.launch_ms_per_op" "ms" (layer "gpusim.launch" *. 1e3 /. n);
      metric "gpusim.ns_per_winstr" "ns"
        (layer "gpusim.launch" *. 1e9 /. float_of_int winstr);
      metric "gpusim.winstr_per_op" "count" (float_of_int winstr /. n);
      metric "gpusim.sim_cycles_per_op" "count" (float_of_int cycles /. n);
      metric "gpusim.l1_accesses_per_op" "count" (float_of_int l1_acc /. n);
      metric "gpusim.l1_hit_rate" "share"
        (float_of_int l1_hits /. float_of_int (max 1 l1_acc));
      metric "gpusim.winstr_per_s" "1/s"
        (float_of_int winstr /. replay_wall);
      metric "gpusim.codegen_us_per_kernel" "us" (us front.codegen_s);
      metric "catt.analyze_us_per_kernel" "us" (us front.analyze_s);
      metric "minicuda.parse_us_per_op" "us" (us front.parse_s);
      metric "runner.prepare_ms_per_op" "ms" (layer "runner.prepare" *. 1e3 /. n);
      metric "workloads.setup_ms_per_op" "ms" (layer "workloads.setup" *. 1e3 /. n);
      metric "workloads.verify_ms_per_op" "ms"
        (layer "workloads.verify" *. 1e3 /. n);
      metric "runner.simulated_share" "share" 1.;
      metric "json.encode_us_per_op" "us" (layer "json.encode" *. 1e6 /. n);
      metric "json.response_bytes_mean" "bytes" (Rules.mean !encoded);
      metric "gc.minor_words_per_op" "words" (gcs.Gc_events.minor_words /. n);
      metric "gc.minor_collections" "count"
        (float_of_int gcs.Gc_events.minor_collections);
      metric "gc.major_collections" "count"
        (float_of_int gcs.Gc_events.major_collections);
      metric "gc.pause_ms_total" "ms" gcs.Gc_events.pause_ms_total;
      metric "gc.pause_ms_max" "ms" gcs.Gc_events.pause_ms_max;
      metric "self.gpusim_pct" "pct" (pct (layer "gpusim.launch"));
      metric "self.runner_pct" "pct" (pct (layer "runner.prepare"));
      metric "self.workloads_pct" "pct"
        (pct (layer "workloads.setup" +. layer "workloads.verify"));
      metric "self.json_pct" "pct" (pct (layer "json.encode"));
      metric "harness.residual_pct" "pct" (pct !residual);
      metric "harness.trace_overhead_pct" "pct"
        (100. *. ((replay_wall /. exec_wall) -. 1.));
    ]
  in
  if gcs.Gc_events.lost_events > 0 then
    complain "grid-cold: %d GC events lost" gcs.Gc_events.lost_events;
  (tally, metrics)
