(** [catt] — the compiler CLI: analyze a mini-CUDA kernel and emit the
    throttled source, mirroring how the paper's tool wraps its ANTLR pass.

    Usage:
      catt_cli analyze  FILE --grid GX[,GY] --block BX[,BY] [--onchip KB] [--sms N] [--jobs N]
      catt_cli transform FILE --grid … --block …   (prints transformed source)
      catt_cli check    FILE --grid … --block … [--strict]   (kernel sanitizer)
      catt_cli disasm   FILE                       (SASS-lite dump)
      catt_cli run      WORKLOAD [--scheme S] [--onchip KB] [--sms N]
                                                   (simulate under a scheme and print
                                                    per-kernel counters + verification)
      catt_cli sweep    WORKLOAD [--jobs N] [--onchip KB] [--sms N] [--no-cache]
                                                   (Fig. 9 throttling-factor axis plus
                                                    best-SWL and CATT)
      catt_cli profile  WORKLOAD [--scheme S] [--onchip KB] [--sms N]
                        [--trace-out trace.json]
                                                   (cycle accounting + L1D heat maps,
                                                    optional Perfetto timeline export)
      catt_cli explain  WORKLOAD [--json] [--onchip KB] [--sms N]
                                                   (CATT decision provenance)
      catt_cli lint     TARGET [--json] [--grid ...] [--block ...]
                        [--onchip KB] [--sms N]
                                                   (static cache-behavior lint;
                                                    TARGET is a source file or a
                                                    registered workload)
      catt_cli experiments [ARTIFACT…] [--jobs N] [--onchip KB] [--sms N]
                           [--no-cache] [--quiet]
                                                   (regenerate the paper's tables and
                                                    figures; default: all)

    S is baseline, CATT, fixed(N=..,M=..), dynamic, ccws, daws, swl(..),
    bypass, catt-sa, ciao or ata — {!Experiments.Scheme.of_string}'s
    grammar, the same one the wire protocol and cache keys use.
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-CUDA source file")

let grid_arg =
  Arg.(
    value
    & opt Cli_common.pair (4, 1)
    & info [ "grid" ] ~docv:"GX[,GY]" ~doc:"grid dimensions")

let block_arg =
  Arg.(
    value
    & opt Cli_common.pair (256, 1)
    & info [ "block" ] ~docv:"BX[,BY]" ~doc:"thread-block dimensions")

let kernels_of path =
  (Minicuda.Parser.parse_program (read_file path)).Minicuda.Ast.kernels

let analyses path (gx, gy) (bx, by) cfg jobs =
  let geo = { Catt.Analysis.grid_x = gx; grid_y = gy; block_x = bx; block_y = by } in
  let results =
    (* independent per-kernel passes; order is preserved by Pool.map *)
    Gpu_util.Pool.parallel_map ~jobs
      (fun kernel -> (kernel, Catt.Driver.analyze cfg kernel geo))
      (kernels_of path)
  in
  List.filter_map
    (fun (kernel, r) ->
      match r with
      | Ok t -> Some t
      | Error msg ->
        Printf.eprintf "%s: %s\n" kernel.Minicuda.Ast.kernel_name msg;
        None)
    results

let analyze_cmd =
  let run path grid block cfg jobs =
    List.iter (Catt.Report.print cfg) (analyses path grid block cfg jobs)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"print the per-loop contention analysis")
    Term.(
      const run $ file_arg $ grid_arg $ block_arg $ Cli_common.config
      $ Cli_common.jobs)

let transform_cmd =
  let run path grid block cfg jobs =
    List.iter
      (fun (t : Catt.Driver.t) ->
        print_endline (Minicuda.Pretty.kernel t.Catt.Driver.transformed);
        print_newline ())
      (analyses path grid block cfg jobs)
  in
  Cmd.v (Cmd.info "transform" ~doc:"print the throttled source")
    Term.(
      const run $ file_arg $ grid_arg $ block_arg $ Cli_common.config
      $ Cli_common.jobs)

let check_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"treat warnings (e.g. possible out-of-bounds) as fatal")
  in
  let run path (gx, gy) (bx, by) strict =
    let geo =
      { Sanitize.Geom.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
    in
    let diags =
      List.concat_map
        (fun kernel -> Sanitize.Check.check_kernel geo kernel)
        (kernels_of path)
    in
    List.iter
      (fun d -> print_endline (Sanitize.Diag.to_string ~file:path d))
      diags;
    let fatal =
      if strict then diags <> [] else Sanitize.Diag.has_errors diags
    in
    if fatal then exit 1
    else if diags = [] then print_endline "no diagnostics"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "run the kernel sanitizer (barrier divergence, shared-memory races, \
          bounds); exits non-zero on errors")
    Term.(const run $ file_arg $ grid_arg $ block_arg $ strict_arg)

let disasm_cmd =
  let file0 =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"source file")
  in
  let run path =
    List.iter
      (fun kernel ->
        print_string (Gpusim.Bytecode.disassemble (Gpusim.Codegen.compile_kernel kernel)))
      (kernels_of path)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"dump SASS-lite bytecode") Term.(const run $ file0)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:"registered workload name (e.g. ATAX, GEMM); case-insensitive")

let find_workload name =
  match Workloads.Registry.find name with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2
  | w -> w

(* Perfetto/Chrome trace-event export: host spans on pid 1, each profiled
   kernel's per-SM cycle timeline on its own pid (simulated cycles render
   as microseconds). *)
let write_trace ~path (r : Experiments.Runner.app_run) =
  let host =
    Obs.Trace_event.process_name ~pid:1 "host"
    :: Obs.Trace_event.of_spans ~pid:1 (Obs.Span.finished ())
  in
  let sim =
    List.concat
      (List.mapi
         (fun i (ks : Experiments.Runner.kernel_stats) ->
           match ks.Experiments.Runner.profile with
           | None -> []
           | Some p -> (
             match Profile.Collector.timeline p with
             | None -> []
             | Some tl ->
               let pid = 2 + i in
               Obs.Trace_event.process_name ~pid
                 (Printf.sprintf "sim:%s (cycles as us)"
                    ks.Experiments.Runner.kernel_name)
               :: Profile.Timeline.to_events tl ~pid))
         r.Experiments.Runner.kernels)
  in
  Obs.Trace_event.write ~path (host @ sim);
  Printf.printf "wrote %s (open in chrome://tracing or ui.perfetto.dev)\n" path

let scheme_arg ~doing =
  Arg.(
    value
    & opt Cli_common.scheme Experiments.Scheme.Baseline
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          (Printf.sprintf
             "execution scheme to %s: baseline, CATT, fixed(N=..,M=..), \
              dynamic, ccws, daws, swl(..), bypass, catt-sa, ciao or ata"
             doing))

(* simulate-and-verify from the same Runner path the experiment grids
   use: the counters printed here are the ones the golden grid digests *)
let run_cmd =
  let run name scheme cfg =
    let w = find_workload name in
    match Experiments.Runner.exec (Experiments.Runner.Request.make cfg w scheme) with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok r -> (
      Printf.printf "%s under %s (%s): %d cycles total\n"
        r.Experiments.Runner.workload
        (Experiments.Runner.scheme_label scheme)
        (Experiments.Configs.label cfg)
        r.Experiments.Runner.total_cycles;
      List.iter
        (fun (ks : Experiments.Runner.kernel_stats) ->
          Printf.printf "  %-20s TLP (%2d,%2d)  %s\n"
            ks.Experiments.Runner.kernel_name
            (fst ks.Experiments.Runner.tlp)
            (snd ks.Experiments.Runner.tlp)
            (Format.asprintf "%a" Gpusim.Stats.pp ks.Experiments.Runner.stats);
          let s = ks.Experiments.Runner.stats in
          if s.Gpusim.Stats.bypass_transactions > 0 then
            Printf.printf "  %-20s bypassed-by-policy=%d\n" ""
              s.Gpusim.Stats.bypass_transactions;
          if s.Gpusim.Stats.ata_tag_hits > 0 then
            Printf.printf "  %-20s ata-tag-hits=%d ata-promotions=%d\n" ""
              s.Gpusim.Stats.ata_tag_hits s.Gpusim.Stats.ata_promotions)
        r.Experiments.Runner.kernels;
      match r.Experiments.Runner.verified with
      | Ok () -> print_endline "verification: OK"
      | Error msg ->
        Printf.printf "verification: FAILED (%s)\n" msg;
        exit 1)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "simulate a registered workload under a scheme and print per-kernel \
          counters (including the CIAO bypassed-by-policy and ATA tag-array \
          counters when non-zero), then check the CPU oracle")
    Term.(
      const run $ workload_arg $ scheme_arg ~doing:"run" $ Cli_common.config)

let profile_cmd =
  let scheme_arg = scheme_arg ~doing:"profile" in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:
            "also record host spans and the per-SM warp issue/stall \
             timeline, and write them as Chrome trace-event JSON loadable \
             in chrome://tracing or Perfetto")
  in
  let run name scheme trace_out cfg =
    let w = find_workload name in
    let timeline = trace_out <> None in
    if timeline then Obs.Span.enabled := true;
    match
      Experiments.Runner.exec
        (Experiments.Runner.Request.make ~profile:true ~timeline cfg w scheme)
    with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok r -> (
      Printf.printf "%s, %s scheme, %d total cycles\n"
        r.Experiments.Runner.workload
        (Experiments.Runner.scheme_label scheme)
        r.Experiments.Runner.total_cycles;
      List.iter
        (fun (ks : Experiments.Runner.kernel_stats) ->
          match ks.Experiments.Runner.profile with
          | Some p ->
            Printf.printf "\n==== kernel %s ====\n\n%s"
              ks.Experiments.Runner.kernel_name
              (Profile.Collector.render p)
          | None -> ())
        r.Experiments.Runner.kernels;
      match trace_out with
      | Some path -> write_trace ~path r
      | None -> ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "simulate a registered workload with the profiler attached and \
          render per-SM cycle accounting plus per-array L1D heat maps; \
          $(b,--trace-out) additionally exports a Perfetto timeline")
    Term.(
      const run $ workload_arg $ scheme_arg $ trace_out_arg $ Cli_common.config)

let explain_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"emit the provenance record as JSON instead of rendering it")
  in
  let run name as_json cfg =
    let w = find_workload name in
    let analyses = Experiments.Explain.analyses cfg w in
    if as_json then
      print_endline
        (Gpu_util.Json.to_string ~pretty:true
           (Experiments.Explain.workload_to_json cfg w analyses))
    else print_string (Experiments.Explain.render cfg w analyses)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "show the provenance of every CATT decision for a registered \
          workload: per-loop Eq. 8 footprints, the candidate (N, M) \
          sequence tried against the L1D capacity, and the sanitizer \
          gate outcome")
    Term.(
      const run $ workload_arg $ json_arg $ Cli_common.config)

let lint_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "mini-CUDA source file, or a registered workload name (each \
             kernel linted under its recorded launch geometry)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"emit the diagnostics as deterministic JSON instead of text")
  in
  let run target as_json (gx, gy) (bx, by) cfg =
    let targets =
      if Sys.file_exists target then
        let geo =
          { Catt.Analysis.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
        in
        List.map (fun k -> (geo, k)) (kernels_of target)
      else
        let w = find_workload target in
        List.map
          (fun (name, k) ->
            (Experiments.Runner.geometry_of_kernel w name, k))
          (Workloads.Workload.kernels w)
    in
    let diags =
      List.concat_map
        (fun (geo, kernel) ->
          Staticmodel.Lint.run
            (Experiments.Lint_all.machine_of cfg)
            ?occupancy:(Experiments.Lint_all.hint_of cfg geo kernel)
            geo kernel)
        targets
    in
    if as_json then
      print_endline
        (Gpu_util.Json.to_string ~pretty:true
           (Staticmodel.Lint.list_to_json diags))
    else if diags = [] then print_endline "no diagnostics"
    else List.iter (fun d -> print_endline (Staticmodel.Lint.to_string d)) diags
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the static cache-behavior lint: uncoalesced global accesses, \
          shared-memory bank conflicts, loop-invariant global loads, \
          occupancy limiters and over-capacity working sets, ranked by \
          severity with source positions")
    Term.(
      const run $ target_arg $ json_arg $ grid_arg $ block_arg
      $ Cli_common.config)

(* the Fig. 9 axis for one workload: every (N, M) candidate, then the best
   static warp limit and CATT's own pick *)
let sweep_cmd =
  let run name cfg jobs no_cache =
    Experiments.Cache.enabled := not no_cache;
    let w = find_workload name in
    let open Experiments.Runner in
    Printf.printf "throttling-factor sweep for %s (N = warp split, M = TB cut):\n"
      w.Workloads.Workload.name;
    (* precompute every cell of the sweep (plus best-SWL and CATT) across
       the pool; the prints below then read from the memo in order *)
    let cells =
      List.map
        (fun (n, m) ->
          (cfg, w, if n = 1 && m = 0 then Baseline else Fixed (n, m)))
        (candidates cfg w)
      @ List.map (fun k -> (cfg, w, Swl k)) (swl_candidates cfg w)
      @ [ (cfg, w, Catt) ]
    in
    ignore (run_many ~jobs cells);
    let points = sweep cfg w in
    let base = match points with ((1, 0), r) :: _ -> r.total_cycles | _ -> 1 in
    List.iter
      (fun ((n, m), r) ->
        Printf.printf "  N=%2d M=%2d  %10d cycles  %.2fx\n" n m r.total_cycles
          (float_of_int r.total_cycles /. float_of_int base))
      points;
    let k, swl = best_swl cfg w in
    Printf.printf "  best-SWL (k=%d warps): %d cycles\n" k swl.total_cycles;
    Printf.printf "  CATT:                  %d cycles\n"
      (Experiments.Runner.run cfg w Catt).total_cycles
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "print a workload's full throttling-factor sweep (the Fig. 9 axis) \
          plus the best static warp limit and CATT")
    Term.(
      const run $ workload_arg $ Cli_common.config $ Cli_common.jobs
      $ Cli_common.no_cache)

(* The (workload x scheme) grid behind the requested artifacts is
   precomputed on a pool of [--jobs] domains, and every completed cell is
   persisted under results/cache/ — a second invocation reports a cache
   hit per cell and renders from disk.  Rendering itself is sequential, so
   the artifact output is identical for any job count. *)
let experiments_cmd =
  let artifact_args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARTIFACT"
          ~doc:
            (Printf.sprintf "artifacts to regenerate: %s (default: all)"
               (String.concat ", " Experiments.Report.ids)))
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"suppress per-run progress lines")
  in
  let run artifact_ids jobs onchip_kb sms no_cache quiet =
    Experiments.Configs.onchip_kb := onchip_kb;
    Experiments.Configs.num_sms := sms;
    Experiments.Cache.enabled := not no_cache;
    Experiments.Runner.progress := not quiet;
    let targets =
      match artifact_ids with
      | [] | [ "all" ] -> Experiments.Report.artifacts
      | ids ->
        List.map
          (fun id ->
            match Experiments.Report.find id with
            | Some a -> a
            | None ->
              Printf.eprintf "unknown artifact %s (known: %s)\n" id
                (String.concat " " Experiments.Report.ids);
              exit 2)
          ids
    in
    ignore
      (Experiments.Report.warm ~jobs
         (List.map (fun (a : Experiments.Report.artifact) -> a.id) targets));
    List.iter
      (fun (a : Experiments.Report.artifact) ->
        Printf.printf "==== %s ====\n\n%s\n\n%!" a.title (a.render ()))
      targets;
    let cs = Experiments.Cache.stats () in
    let cells = Obs.Metrics.value (Obs.Metrics.counter "sim.cells") in
    let uptime_us =
      match List.assoc_opt "process.uptime_us" (Obs.Metrics.snapshot ()) with
      | Some (Obs.Metrics.Count us) -> float_of_int us
      | _ -> 0.
    in
    Printf.printf
      "summary: cache %d hits / %d misses / %d evicted / %d stored; %d cells \
       simulated (%.2f cells/sec)\n"
      cs.Experiments.Cache.hits cs.Experiments.Cache.misses
      cs.Experiments.Cache.evictions cs.Experiments.Cache.stores cells
      (if uptime_us <= 0. then 0. else float_of_int cells /. (uptime_us /. 1e6))
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"regenerate the paper's tables and figures")
    Term.(
      const run $ artifact_args $ Cli_common.jobs $ Cli_common.onchip
      $ Cli_common.sms $ Cli_common.no_cache $ quiet)

let bench_cmd =
  let module Bench = Experiments.Bench_core in
  let baseline_arg =
    Arg.(
      value
      & opt string "BENCH_gpusim.json"
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:"committed throughput report to compare against")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "re-measure the gated stages and exit non-zero when any stage \
             regresses more than 10% below the committed cells/sec")
  in
  (* the serve stage lives above Bench_core in the dependency order, so
     it is composed into both the measurement and the retry path here *)
  let extra = [ (fun () -> Serve.Bench.stage ()) ] in
  let run baseline check jobs =
    if not check then begin
      (* without --check, just measure and print (no gate, no file write) *)
      let r = Bench.collect ~jobs ~extra () in
      List.iter
        (fun (s : Bench.stage) ->
          Printf.printf "  %-16s %8.2f cells/sec  %12.0f minor words/cell\n"
            s.Bench.name s.Bench.cells_per_sec s.Bench.minor_words_per_cell)
        (r.Bench.gated @ r.Bench.pool)
    end
    else if not (Sys.file_exists baseline) then begin
      Printf.eprintf
        "no committed baseline at %s — generate one with `dune exec \
         bench/main.exe -- --json %s`\n"
        baseline baseline;
      exit 2
    end
    else
      let committed =
        match
          Gpu_util.Json.of_string
            (In_channel.with_open_bin baseline In_channel.input_all)
        with
        | Error msg ->
          Printf.eprintf "%s: %s\n" baseline msg;
          exit 2
        | Ok json -> (
          match Bench.baseline_of_json json with
          | Ok stages -> stages
          | Error msg ->
            Printf.eprintf "%s: %s\n" baseline msg;
            exit 2)
      in
      let measured = Bench.stages () @ List.map (fun f -> f ()) extra in
      let remeasure name =
        Printf.printf "  %-16s re-measuring (ruling out timing noise)\n%!"
          name;
        if name = Serve.Bench.stage_name then Some (Serve.Bench.stage ())
        else Bench.remeasure_gated name
      in
      let verdicts =
        Bench.check_with_retry ~committed ~measured ~remeasure ()
      in
      print_string (Bench.render_verdicts verdicts);
      if not (List.for_all (fun v -> v.Bench.ok) verdicts) then begin
        print_endline "throughput gate: FAIL (>10% below committed baseline)";
        exit 1
      end;
      print_endline "throughput gate: PASS";
      (* the telemetry plane's disabled path must stay free on the serve
         loop too: the same A/A protocol, re-measured up to 3 times so a
         noisy scheduler slice cannot fail the gate on its own *)
      let rec serve_obs_gate attempt =
        let o = Serve.Bench.obs_overhead () in
        Printf.printf
          "  serve/obs A/A: disabled %.2f ms (%.1f%% apart), enabled %.2f ms \
           (+%.1f%%)\n\
           %!"
          o.Bench.disabled_ms o.Bench.disabled_ab_pct o.Bench.enabled_ms
          o.Bench.enabled_pct;
        if o.Bench.disabled_within_5pct then true
        else if attempt < 3 then begin
          Printf.printf
            "  serve/obs A/A above 5%% — re-measuring (attempt %d of 3)\n%!"
            (attempt + 1);
          serve_obs_gate (attempt + 1)
        end
        else false
      in
      if serve_obs_gate 1 then
        print_endline "serve obs-overhead gate: PASS"
      else begin
        print_endline "serve obs-overhead gate: FAIL (disabled A/A > 5%)";
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "measure grid-simulation throughput; with $(b,--check), gate it \
          against the committed BENCH_gpusim.json")
    Term.(const run $ baseline_arg $ check_arg $ Cli_common.jobs)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "catt_cli" ~doc:"compiler-assisted GPU thread throttling" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            analyze_cmd; transform_cmd; check_cmd; disasm_cmd; run_cmd;
            sweep_cmd; profile_cmd; explain_cmd; lint_cmd; experiments_cmd;
            bench_cmd;
          ]))
