(** [simulate] — run one benchmark application on the simulator under a
    chosen scheme and print per-kernel counters.

    Usage: simulate WORKLOAD [--scheme baseline|catt|NxM] [--onchip KB]
                    [--sms N] [--jobs N] [--no-cache] [--list] [--sweep] *)

open Cmdliner

let scheme_conv : Experiments.Scheme.t Arg.conv =
  let parse s =
    match Experiments.Scheme.of_string s with
    | Ok scheme -> Ok scheme
    | Error msg -> (
      (* also accept the bare NxM / N,M shorthand for fixed factors,
         range-checked like the long form *)
      match Cli_common.pair_of_string s with
      | Ok (n, m) ->
        Result.map_error
          (fun msg -> `Msg msg)
          (Experiments.Scheme.of_string
             (Experiments.Scheme.label (Experiments.Scheme.Fixed (n, m))))
      | Error _ -> Error (`Msg msg))
  in
  let print fmt s = Format.pp_print_string fmt (Experiments.Scheme.label s) in
  Arg.conv (parse, print)

let print_sweep ~jobs cfg w =
  Printf.printf "throttling-factor sweep for %s (N = warp split, M = TB cut):\n"
    w.Workloads.Workload.name;
  (* precompute every cell of the sweep (plus best-SWL and CATT) across
     the pool; the prints below then read from the memo in order *)
  let open Experiments.Runner in
  let cells =
    List.map
      (fun (n, m) ->
        (cfg, w, if n = 1 && m = 0 then Baseline else Fixed (n, m)))
      (candidates cfg w)
    @ List.map (fun k -> (cfg, w, Swl k)) (swl_candidates cfg w)
    @ [ (cfg, w, Catt) ]
  in
  ignore (run_many ~jobs cells);
  let sweep = Experiments.Runner.sweep cfg w in
  let base =
    match sweep with ((1, 0), r) :: _ -> r.Experiments.Runner.total_cycles | _ -> 1
  in
  List.iter
    (fun ((n, m), (r : Experiments.Runner.app_run)) ->
      Printf.printf "  N=%2d M=%2d  %10d cycles  %.2fx\n" n m
        r.Experiments.Runner.total_cycles
        (float_of_int r.Experiments.Runner.total_cycles /. float_of_int base))
    sweep;
  let k, swl = Experiments.Runner.best_swl cfg w in
  Printf.printf "  best-SWL (k=%d warps): %d cycles\n" k
    swl.Experiments.Runner.total_cycles;
  let catt = Experiments.Runner.run cfg w Experiments.Runner.Catt in
  Printf.printf "  CATT:                  %d cycles\n" catt.Experiments.Runner.total_cycles

let find_workload name =
  try Workloads.Registry.find name
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 2

let run name scheme cfg jobs no_cache list_only sweep =
  Experiments.Cache.enabled := not no_cache;
  if list_only then
    List.iter print_endline (Workloads.Registry.names `All)
  else if sweep then
    print_sweep ~jobs cfg (find_workload name)
  else begin
    let w = find_workload name in
    let r = Experiments.Runner.run cfg w scheme in
    Printf.printf "%s under %s: %d cycles total\n" w.Workloads.Workload.name
      (Experiments.Runner.scheme_label scheme)
      r.Experiments.Runner.total_cycles;
    List.iter
      (fun (ks : Experiments.Runner.kernel_stats) ->
        Printf.printf "  %-20s TLP (%2d,%2d)  %s\n" ks.kernel_name
          (fst ks.Experiments.Runner.tlp) (snd ks.Experiments.Runner.tlp)
          (Format.asprintf "%a" Gpusim.Stats.pp ks.Experiments.Runner.stats))
      r.Experiments.Runner.kernels;
    match r.Experiments.Runner.verified with
    | Ok () -> print_endline "verification: OK"
    | Error msg ->
      Printf.printf "verification: FAILED (%s)\n" msg;
      exit 1
  end

let () =
  let name_arg =
    Arg.(value & pos 0 string "ATAX" & info [] ~docv:"WORKLOAD" ~doc:"benchmark name")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Experiments.Runner.Baseline
      & info [ "scheme" ] ~docv:"S"
          ~doc:
            "baseline, catt, dynamic, ccws, daws, bypass, catt-sa, ciao, \
             ata, swl(K), or NxM")
  in
  let list_only = Arg.(value & flag & info [ "list" ] ~doc:"list workloads and exit") in
  let sweep =
    Arg.(value & flag & info [ "sweep" ] ~doc:"print the full throttling-factor sweep (Fig. 9 axis) plus best-SWL and CATT")
  in
  let cmd =
    Cmd.v (Cmd.info "simulate" ~doc:"run a workload on the GPU simulator")
      Term.(
        const run $ name_arg $ scheme $ Cli_common.config $ Cli_common.jobs
        $ Cli_common.no_cache $ list_only $ sweep)
  in
  exit (Cmd.eval cmd)
