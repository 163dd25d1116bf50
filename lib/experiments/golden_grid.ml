(** Bit-identity fingerprints of the full experiment grid.

    Every (workload, scheme) cell of the evaluation grid is simulated once
    with profiling attached and reduced to one MD5 digest covering

    - the complete serialized {!Gpusim.Stats} of every kernel,
    - the profiler's aggregated JSON for every kernel, and
    - the final device memory image (every array, bit-for-bit).

    The digests pin the simulator's *observable semantics*: any hot-path
    rewrite — scheduler data layout, cache probe protocol, coalescer
    buffers — must leave every digest unchanged, or it changed simulated
    behaviour, not just speed.  The committed snapshot lives in
    [test/golden_profiles/golden_grid.json] and is checked by the
    [@profile] alias; regenerate it only for an *intentional* semantic
    change (see the header of [test/test_profile.ml]). *)

module Json = Gpu_util.Json

(** One scheme per simulator control path: plain GTO, CATT's transformed
    kernels (carveout + splits), the uniform fixed throttle, each runtime
    throttling controller, L1D bypass, and the interference-aware
    hardware schemes (CIAO bypassing, ATA-Cache). *)
let schemes =
  [
    Runner.Baseline;
    Runner.Catt;
    Runner.Fixed (2, 1);
    Runner.Dynamic;
    Runner.CcwsSched;
    Runner.DawsSched;
    Runner.Swl 4;
    Runner.Bypass;
    Runner.Ciao;
    Runner.Ata;
  ]

let cell_key (w : Workloads.Workload.t) scheme =
  Printf.sprintf "%s|%s" w.Workloads.Workload.name (Runner.scheme_label scheme)

let digest_memory dev =
  let buf = Buffer.create (64 * 1024) in
  List.iter
    (fun (name, data) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      Array.iter (fun v -> Buffer.add_int64_le buf (Int64.bits_of_float v)) data;
      Buffer.add_char buf ';')
    (Gpusim.Gpu.arrays dev);
  Digest.bytes (Buffer.to_bytes buf)

(** The cell digest of an already-profiled run plus its memory digest —
    shared by {!digest_cell} and the [@schemes] checker, which reuses one
    profiled run for both the purity comparison and the golden pinning. *)
let digest_of_run ~mem (r : Runner.app_run) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (ks : Runner.kernel_stats) ->
      Buffer.add_string buf ks.Runner.kernel_name;
      Buffer.add_string buf
        (Json.to_string (Gpusim.Stats.to_json ks.Runner.stats));
      match ks.Runner.profile with
      | Some c ->
        Buffer.add_string buf (Json.to_string (Profile.Collector.to_json c))
      | None -> ())
    r.Runner.kernels;
  Buffer.add_string buf mem;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest_cell cfg (w : Workloads.Workload.t) scheme =
  let mem = ref "" in
  match
    Runner.simulate
      (Runner.Request.make ~profile:true
         ~on_device:(fun dev -> mem := Digest.to_hex (digest_memory dev))
         cfg w scheme)
  with
  | Error msg -> Printf.sprintf "ERROR:%s" msg
  | Ok runs -> digest_of_run ~mem:!mem (List.hd runs)

let cells () =
  List.concat_map
    (fun w -> List.map (fun s -> (w, s)) schemes)
    Workloads.Registry.all

(** All digests, fanned across [jobs] domains (default: one per effective
    core); cell order is fixed (registry order x scheme order) so the
    rendered JSON is canonical regardless of [jobs]. *)
let digests ?(jobs = 0) cfg =
  Gpu_util.Pool.parallel_map ~jobs
    (fun (w, s) -> (cell_key w s, digest_cell cfg w s))
    (cells ())

let to_json ds = Json.Obj (List.map (fun (k, d) -> (k, Json.String d)) ds)

let of_json json =
  Json.decode
    (fun j ->
      match j with
      | Json.Obj fields ->
        List.map (fun (k, v) -> (k, Json.to_str v)) fields
      | _ -> raise (Json.Type_error "golden grid: expected an object"))
    json
