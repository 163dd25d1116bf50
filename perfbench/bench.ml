(** The repository benchmark.

    [bench --workload W --seed N --seconds S --trace 0|1] runs one
    workload for about [S] seconds and prints one line per metric, then
    the JSON result as the last line of stdout.  [--trace 0] measures
    the end-to-end metrics; [--trace 1] is the separate traced run that
    produces the per-layer metrics.  Any failed output check makes the
    exit code 1.  See README.md for the workloads and metrics.

    [bench --record-reference] rewrites [perfbench/reference.json] from
    in-process runs of every cell the workloads touch.
    [bench --probe-setup W --seed N] is the set-up probe the end-to-end
    run spawns: it sets up and reports ready on stdout. *)

open Common

let workloads = [ "grid-cold"; "serve-warm" ]

(* ------------------------------------------------------------------ *)
(* Set-up time                                                         *)
(* ------------------------------------------------------------------ *)

(** Process start until ready for the first timed cell, over [k] fresh
    processes (the grid's set-up is process start, module
    initialization, the reference load and the cell list). *)
let grid_setup_s ~seed ~k =
  List.init k (fun _ ->
      let t0 = now () in
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--probe-setup"; "grid-cold"; "--seed";
             string_of_int seed |]
          Unix.stdin out_w Unix.stderr
      in
      Unix.close out_w;
      let ic = Unix.in_channel_of_descr out_r in
      let line = In_channel.input_line ic in
      let dt = now () -. t0 in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      if line <> Some "ready" then failwith "set-up probe failed";
      dt)
  |> Rules.median

(* ------------------------------------------------------------------ *)
(* Reference record                                                    *)
(* ------------------------------------------------------------------ *)

let record_reference () =
  Experiments.Cache.enabled := false;
  let cells =
    cells_of Workloads.Registry.all
      [ Scheme.Baseline; Scheme.Catt; Scheme.Ciao; Scheme.Ata ]
  in
  let cell_entries =
    List.map
      (fun c ->
        Runner.clear_memo ();
        match Runner.exec (Runner.Request.make cfg c.w c.scheme) with
        | Ok r when r.Runner.verified = Ok () ->
          prerr_endline ("recorded " ^ cell_key c);
          (cell_key c, expect_to_json (expect_of_run r))
        | Ok _ -> failwith (cell_key c ^ ": oracle failed")
        | Error msg -> failwith msg)
      cells
  in
  let pair_entries =
    List.map
      (fun p ->
        Runner.clear_memo ();
        match
          Runner.run_co_resident cfg p.a.w p.a.scheme p.b.w p.b.scheme
        with
        | Ok (ra, rb) ->
          prerr_endline ("recorded " ^ pair_key p);
          (pair_key p, Json.String (md5 (pair_payload ra rb)))
        | Error msg -> failwith msg)
      Serve_load.all_pairs
  in
  Out_channel.with_open_bin reference_path (fun oc ->
      output_string oc
        (Json.to_string ~pretty:true
           (Json.Obj
              [
                ( "about",
                  Json.String
                    "exact counts (summed over kernels) and simulate-reply \
                     digests per cell; regenerate with bench \
                     --record-reference only when the model's outputs are \
                     meant to change" );
                ("cells", Json.Obj cell_entries);
                ("pairs", Json.Obj pair_entries);
              ]));
      output_char oc '\n')

(** Every per-layer metric, in one fixed order; a layer a workload does
    not exercise reads 0. *)
let layer_names =
  [
    ("gpusim.launch_ms_per_op", "ms"); ("gpusim.ns_per_winstr", "ns");
    ("gpusim.winstr_per_op", "count"); ("gpusim.sim_cycles_per_op", "count");
    ("gpusim.l1_accesses_per_op", "count"); ("gpusim.l1_hit_rate", "share");
    ("gpusim.winstr_per_s", "1/s"); ("sim.cells_delta", "count");
    ("gpusim.codegen_us_per_kernel", "us"); ("catt.analyze_us_per_kernel", "us");
    ("minicuda.parse_us_per_op", "us"); ("runner.prepare_ms_per_op", "ms");
    ("workloads.setup_ms_per_op", "ms"); ("workloads.verify_ms_per_op", "ms");
    ("runner.memo_hit_us", "us"); ("runner.disk_hit_us", "us");
    ("runner.memo_share", "share"); ("runner.disk_share", "share");
    ("runner.simulated_share", "share"); ("runner.coalesced", "count");
    ("cache.load_us", "us"); ("cache.store_us", "us");
    ("cache.bytes_on_disk", "bytes"); ("cache.hits", "count");
    ("cache.misses", "count"); ("cache.stores", "count");
    ("json.decode_us_per_hit", "us"); ("json.encode_us_per_op", "us");
    ("json.response_bytes_mean", "bytes"); ("serve.parse_us", "us");
    ("serve.queue_wait_us", "us"); ("serve.handler_us", "us");
    ("serve.write_wait_us", "us"); ("serve.overloaded", "count");
    ("pool.tasks", "count"); ("pool.busy_share", "share");
    ("pool.queue_depth_peak", "count"); ("gc.minor_words_per_op", "words");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.pause_ms_total", "ms"); ("gc.pause_ms_max", "ms");
    ("self.gpusim_pct", "pct"); ("self.runner_pct", "pct");
    ("self.workloads_pct", "pct"); ("self.catt_pct", "pct");
    ("self.json_pct", "pct"); ("self.serve_pct", "pct"); ("self.pool_pct", "pct");
    ("self.queue_wait_pct", "pct"); ("self.write_wait_pct", "pct");
    ("harness.gen_lag_p99_ms", "ms");
    ("harness.residual_pct", "pct"); ("harness.trace_overhead_pct", "pct");
  ]

let complete_layers metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> m.name = name) metrics with
      | Some m -> m
      | None -> metric name unit_ 0. ~note:"(not exercised)")
    layer_names

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench --workload (grid-cold|serve-warm) --seed N \
     --seconds S --trace (0|1)\n\
    \       bench --record-reference";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | [] -> acc
    | "--record-reference" :: rest -> opts (("record", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int_opt k d =
    match get k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int_opt "seed" 1 in
  if get "record" <> None then record_reference ()
  else
    match get "probe-setup" with
    | Some "grid-cold" ->
      ignore (Grid.setup seed);
      print_endline "ready"
    | Some _ -> usage ()
    | None ->
      let workload =
        match get "workload" with
        | Some w when List.mem w workloads -> w
        | _ -> usage ()
      in
      let seconds = float_of_int (int_opt "seconds" 10) in
      let traced =
        match get "trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ()
      in
      let tally, metrics =
        match (workload, traced) with
        | "grid-cold", false ->
          Grid.end_to_end ~setup_s:(grid_setup_s ~seed ~k:21) ~seed ~seconds
        | "grid-cold", true -> Grid.traced ~seed
        | "serve-warm", false -> Serve_load.warm ~seed ~seconds
        | _ -> Serve_load.warm_traced ~seed ~seconds
      in
      let metrics =
        if traced then complete_layers metrics else metrics
      in
      let correct = tally.Rules.failed = 0 && tally.Rules.attempted > 0 in
      print_result ~workload ~correct tally metrics;
      exit (if correct then 0 else 1)
