(** [serve-warm]: the real [catt_d serve] binary in its own process,
    driven over its Unix socket by two client connections, one tenant
    each.

    Set-up is cold traffic: the daemon, on an empty cache directory,
    simulates every warm cell and the co-resident CS+CI pairs for both
    tenants and writes each result to the disk cache.  The measured
    traffic restarts the daemon on that directory and sends a mix in
    which each
    (tenant, cell) is first a disk hit and then memo hits, with
    [analyze], [explain], [stats] and deliberately bad requests mixed
    in.  A closed-loop pipelined phase gives throughput; an open-loop
    phase at a fixed arrival rate gives latency, timed from each
    request's due time. *)

open Common
module Protocol = Serve.Protocol

let catt_d = Filename.concat "_build" (Filename.concat "default" "bin/catt_d.exe")

(** Worker domains the daemon runs with: one per core, as [-j 0] would. *)
let jobs = Domain.recommended_domain_count ()

(** Per-connection pipelining depth of the closed-loop warm phase. *)
let depth = 8

(** The daemon's admission cap: more than the requests of one warm round
    (460), the most any phase can have outstanding, so no request is
    ever refused, however slowly the host serves them. *)
let queue_cap = 1024

(** Arrival rate of the open-loop warm phase, requests per second — about
    a sixth of the closed-loop capacity measured when the benchmark was
    defined, and a third of it with every core of the host also busy
    elsewhere (see README.md), so the latency is service time rather than
    queueing behind a slowed host. *)
let open_rate = 1000.

let tenants = [| "tenant-a"; "tenant-b" |]

(* ------------------------------------------------------------------ *)
(* Scratch directory and daemon processes                              *)
(* ------------------------------------------------------------------ *)

(* relative to the checkout, and short: Unix socket paths are limited
   to ~100 bytes, and a relative path keeps them short wherever the
   checkout lives *)
let work_root = ".perfbench_work"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let work =
  lazy
    (let dir = Filename.concat work_root (string_of_int (Unix.getpid ())) in
     Experiments.Cache.mkdir_p dir;
     at_exit (fun () ->
         rm_rf dir;
         try Unix.rmdir work_root with Unix.Unix_error _ -> ());
     dir)

let fresh_counter = ref 0

let fresh name =
  incr fresh_counter;
  Filename.concat (Lazy.force work) (Printf.sprintf "%s%d" name !fresh_counter)

type daemon = {
  pid : int;
  socket : string;
  trace_out : string option;
  gc : Gc_events.t option;
}

let live : int list ref = ref []

(* a benchmark that dies mid-run must not leave a daemon behind *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* ------------------------------------------------------------------ *)
(* Client connections                                                  *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done

(* the next complete line already buffered, if any *)
let take_line c =
  match Bytes.index_from_opt c.buf c.pos '\n' with
  | Some i when i < c.len ->
    let line = Bytes.sub_string c.buf c.pos (i - c.pos) in
    c.pos <- i + 1;
    Some line
  | _ -> None

(* one read of whatever the socket holds *)
let fill c =
  if c.pos > 0 then begin
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0
  end;
  if c.len = Bytes.length c.buf then begin
    let bigger = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  let n = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then failwith "catt_d closed the connection";
  c.len <- c.len + n

let rec recv c =
  match take_line c with
  | Some line -> line
  | None ->
    fill c;
    recv c

let stats_line id =
  Protocol.request_to_line
    { Protocol.id; tenant = tenants.(0); trace_id = None; kind = Protocol.Stats }

(** One [stats] round trip; the decoded [result] payload. *)
let fetch_stats path =
  match connect path with
  | None -> failwith "catt_d is not accepting connections"
  | Some c ->
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        send c (stats_line "stats");
        match Json.of_string (recv c) with
        | Ok j -> Json.member "result" j
        | Error msg -> failwith ("stats reply: " ^ msg))

let metric_int stats name =
  match Json.member_opt name (Json.member "metrics" stats) with
  | Some (Json.Int n) -> n
  | Some (Json.Float f) -> int_of_float f
  | _ -> 0

(** Starts [catt_d serve] on [cache_dir] and returns once it answers a
    [stats] request. *)
let spawn ?(trace = false) ?(gc = false) ?(jobs = jobs) cache_dir =
  let socket = fresh "s" ^ ".sock" in
  let trace_out = if trace then Some (fresh "trace" ^ ".json") else None in
  let args =
    [ catt_d; "serve"; "--socket"; socket; "--cache-dir"; cache_dir; "-j";
      string_of_int jobs; "--queue-cap"; string_of_int queue_cap ]
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let env =
    if gc then
      Array.append (Unix.environment ())
        [| "OCAML_RUNTIME_EVENTS_START=1";
           "OCAML_RUNTIME_EVENTS_DIR=" ^ Lazy.force work |]
    else Unix.environment ()
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process_env catt_d (Array.of_list args) env null null null
  in
  Unix.close null;
  live := pid :: !live;
  let deadline = now () +. 60. in
  let rec wait () =
    match connect socket with
    | Some c -> close c
    | None ->
      if now () > deadline then failwith "catt_d did not start";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "catt_d exited during start-up");
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ();
  ignore (fetch_stats socket);
  let gc =
    if gc then Some (Gc_events.attach ~dir:(Lazy.force work) ~pid) else None
  in
  { pid; socket; trace_out; gc }

(** SIGTERM (the daemon drains and exits 0) and wait. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* ------------------------------------------------------------------ *)
(* Requests and their checks                                           *)
(* ------------------------------------------------------------------ *)

type kind = Sim_cold | Sim_warm | Analyze | Explain | Stats | Bad

type want =
  | Payload of string  (** md5 of the result payload *)
  | Contains of string  (** an ok result whose payload holds this text *)
  | Code of string  (** an error envelope with this code *)

type request = {
  id : string;  (** also the trace id; [""] for unparseable lines *)
  line : string;
  expect : want;
  kind : kind;
  tenant : string;
  cell : cell option;  (** the solo cell a [simulate] asks for *)
}

let simulate_line ~id ~tenant ?co (c : cell) =
  Protocol.request_to_line
    {
      Protocol.id;
      tenant;
      trace_id = Some id;
      kind =
        Protocol.Simulate
          {
            Protocol.workload = c.w.Workloads.Workload.name;
            scheme = c.scheme;
            co_resident =
              Option.map
                (fun (b : cell) -> (b.w.Workloads.Workload.name, b.scheme))
                co;
          };
    }

let expect_cell reference c =
  match Hashtbl.find_opt reference.cells (cell_key c) with
  | Some e -> e
  | None -> failwith ("no reference for " ^ cell_key c)

let sim_request reference ~kind ~id ~tenant c =
  let e = expect_cell reference c in
  {
    id;
    line = simulate_line ~id ~tenant c;
    expect = Payload e.payload_md5;
    kind;
    tenant;
    cell = Some c;
  }

(** CS+CI pairs under the compile-time schemes: CS workload [i] with CI
    workload [i], alternating baseline and CATT; seven of them. *)
let all_pairs =
  let cs = Array.of_list Workloads.Registry.cs
  and ci = Array.of_list Workloads.Registry.ci in
  List.init
    (min 7 (min (Array.length cs) (Array.length ci)))
    (fun i ->
      let scheme = if i mod 2 = 0 then Scheme.Baseline else Scheme.Catt in
      { a = { w = cs.(i); scheme }; b = { w = ci.(i); scheme } })

let pair_request reference ~id ~tenant p =
  let md5 =
    match Hashtbl.find_opt reference.pairs (pair_key p) with
    | Some m -> m
    | None -> failwith ("no reference for " ^ pair_key p)
  in
  {
    id;
    line = simulate_line ~id ~tenant ~co:p.b p.a;
    expect = Payload md5;
    kind = Sim_cold;
    tenant;
    cell = None;
  }

let front_request ~kind ~id ~tenant w =
  let name = w.Workloads.Workload.name in
  let k, expect =
    match kind with
    | Analyze -> (Protocol.Analyze name, Contains ("\"workload\":\"" ^ name ^ "\""))
    | _ -> (Protocol.Explain name, Contains "\"report\":")
  in
  {
    id;
    line =
      Protocol.request_to_line
        { Protocol.id; tenant; trace_id = Some id; kind = k };
    expect;
    kind;
    tenant;
    cell = None;
  }

let stats_request ~id ~tenant =
  {
    id;
    line =
      Protocol.request_to_line
        { Protocol.id; tenant; trace_id = Some id; kind = Protocol.Stats };
    expect = Contains "\"stats_version\":";
    kind = Stats;
    tenant;
    cell = None;
  }

(* three kinds of bad request, each with the one error code it must get *)
let bad_request ~variant ~id ~tenant =
  let line, id, code =
    match variant mod 3 with
    | 0 ->
      (* not JSON at all: no id can be salvaged *)
      (Printf.sprintf "{\"id\":\"%s\", simulate" id, "", "bad_request")
    | 1 ->
      ( Printf.sprintf
          "{\"schema_version\":1,\"id\":\"%s\",\"tenant\":\"%s\",\
           \"kind\":\"simulate\",\"workload\":\"ATAX\",\"scheme\":\"warp9\"}"
          id tenant,
        id,
        "bad_request" )
    | _ ->
      ( Protocol.request_to_line
          {
            Protocol.id;
            tenant;
            trace_id = Some id;
            kind =
              Protocol.Simulate
                {
                  Protocol.workload = "NOSUCHWORKLOAD";
                  scheme = Scheme.Baseline;
                  co_resident = None;
                };
          },
        id,
        "not_found" )
  in
  { id; line; expect = Code code; kind = Bad; tenant; cell = None }

(* a reply's id, and its result payload or error code, read straight off
   the line (the envelope's field order is fixed by Protocol) *)
let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1)
  in
  go from

let reply_id line =
  match find_from line "\"id\":\"" 0 with
  | None -> None
  | Some i -> (
    match String.index_from_opt line i '"' with
    | Some j -> Some (String.sub line i (j - i))
    | None -> None)

let ok_marker = "\"ok\":true,\"result\":"

(** [Ok ()] when the reply satisfies the request's expectation. *)
let check req line =
  match find_from line ok_marker 0 with
  | Some i -> (
    let payload = String.sub line i (String.length line - i - 1) in
    match req.expect with
    | Payload m ->
      if md5 payload = m then Ok ()
      else Error "payload differs from the reference"
    | Contains sub ->
      if find_from payload sub 0 <> None then Ok ()
      else Error ("result lacks " ^ sub)
    | Code c -> Error ("expected " ^ c ^ ", got ok"))
  | None -> (
    let code =
      match find_from line "\"code\":\"" 0 with
      | Some i -> (
        match String.index_from_opt line i '"' with
        | Some j -> String.sub line i (j - i)
        | None -> "?")
      | None -> "?"
    in
    match req.expect with
    | Code c when c = code -> Ok ()
    | _ -> Error ("error reply " ^ code))

(* ------------------------------------------------------------------ *)
(* One connection's traffic                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : request;
  sent : float;
  received : float;
  due : float;  (** = sent in closed loops *)
  bytes : int;
}

(* replies owed on one connection: by id, and FIFO for id-less lines *)
type owed = {
  by_id : (string, request * float * float) Hashtbl.t;
  anon : (request * float * float) Queue.t;
}

let owed () = { by_id = Hashtbl.create 64; anon = Queue.create () }

let owe o req ~sent ~due =
  if req.id = "" then Queue.add (req, sent, due) o.anon
  else if Hashtbl.mem o.by_id req.id then failwith ("duplicate id " ^ req.id)
  else Hashtbl.replace o.by_id req.id (req, sent, due)

let outstanding o = Hashtbl.length o.by_id + Queue.length o.anon

(** Matches one reply to what it answers, checks it and records the
    sample.  An unknown or repeated id is a failed op of its own. *)
let settle ~tally ~samples o line =
  let received = now () in
  let entry =
    match reply_id line with
    | Some "" | None -> Queue.take_opt o.anon
    | Some id -> (
      match Hashtbl.find_opt o.by_id id with
      | Some e ->
        Hashtbl.remove o.by_id id;
        Some e
      | None -> None)
  in
  match entry with
  | None ->
    complain "serve: reply with an unexpected id: %s"
      (String.sub line 0 (min 120 (String.length line)));
    Rules.note tally false
  | Some (req, sent, due) ->
    let ok =
      match check req line with
      | Ok () -> true
      | Error msg ->
        complain "serve: %s (%s): %s" req.id (String.sub req.line 0
          (min 80 (String.length req.line))) msg;
        false
    in
    Rules.note tally ok;
    samples := { req; sent; received; due; bytes = String.length line } :: !samples

(** Closed loop with up to [depth] requests in flight: the next request
    goes out as soon as a reply comes back.  [next] hands out requests
    until it returns [None]. *)
let closed_loop ~depth ~tally ~samples c next =
  let o = owed () in
  let rec fill () =
    if outstanding o < depth then
      match next () with
      | None -> ()
      | Some req ->
        let sent = now () in
        owe o req ~sent ~due:sent;
        send c req.line;
        fill ()
  in
  fill ();
  while outstanding o > 0 do
    settle ~tally ~samples o (recv c);
    fill ()
  done

(** Connects once per tenant, then runs [f conn tenant_index tally
    samples] on one thread per tenant and joins them; each thread's
    tally and samples merge into the caller's.  Returns the time from
    the start of the threads until every one is done. *)
(* one connection per tenant, each past one untimed round trip, so the
   daemon is serving all of them before any clock starts *)
let connect_all d =
  let conns =
    Array.map
      (fun _ ->
        match connect d.socket with
        | Some c -> c
        | None -> failwith "cannot connect to catt_d")
      tenants
  in
  Array.iter
    (fun c ->
      send c (stats_line "ready");
      ignore (recv c))
    conns;
  conns

let per_tenant d ~tally ~samples f =
  let conns = connect_all d in
  let results = Array.map (fun _ -> (Rules.tally (), ref [])) tenants in
  let start = now () in
  let threads =
    Array.mapi
      (fun i (t, s) -> Thread.create (fun () -> f conns.(i) i t s) ())
      results
  in
  Array.iter Thread.join threads;
  let wall = now () -. start in
  Array.iter close conns;
  Array.iter
    (fun (t, s) ->
      tally.Rules.attempted <- tally.Rules.attempted + t.Rules.attempted;
      tally.Rules.failed <- tally.Rules.failed + t.Rules.failed;
      samples := !s @ !samples)
    results;
  wall

(** The open loop: request [j] of [sched] (connection index, request) is
    due [j / rate] seconds after the start, sent when due whether or not
    earlier replies are back.  One thread drives both connections with
    [select], so no client thread waits on another to be scheduled.
    Returns the wall time and each request's lateness. *)
let open_loop ~rate ~tally ~samples conns sched =
  let owed = Array.map (fun _ -> owed ()) conns in
  let n = Array.length sched in
  let start = now () +. 0.002 in
  let due j = Rules.due ~start ~rate j in
  let next = ref 0 and lags = ref [] in
  let pending () = Array.exists (fun o -> outstanding o > 0) owed in
  while !next < n || pending () do
    while !next < n && due !next <= now () do
      let i, req = sched.(!next) in
      let sent = now () in
      owe owed.(i) req ~sent ~due:(due !next);
      send conns.(i) req.line;
      lags := Rules.lateness ~due:(due !next) ~sent :: !lags;
      incr next
    done;
    Array.iteri
      (fun i c ->
        let rec drain () =
          match take_line c with
          | Some line ->
            settle ~tally ~samples owed.(i) line;
            drain ()
          | None -> ()
        in
        drain ())
      conns;
    let timeout =
      if !next < n then Float.max 0. (due !next -. now ()) else 1.
    in
    if !next < n || pending () then
      match
        Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout
      with
      | readable, _, _ ->
        Array.iter (fun c -> if List.mem c.fd readable then fill c) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (now () -. start, !lags)

(* a thread-safe cursor over a shared request list *)
let shared_queue reqs =
  let q = ref reqs and m = Mutex.create () in
  fun () ->
    Mutex.lock m;
    let r = match !q with [] -> None | x :: rest -> q := rest; Some x in
    Mutex.unlock m;
    r

(* ------------------------------------------------------------------ *)
(* Shared metric helpers                                               *)
(* ------------------------------------------------------------------ *)

let latency_metrics ms =
  let tail = Rules.tail ms in
  [
    metric "latency_p50_ms" "ms" (Rules.median ms);
    metric "latency_tail_ms" "ms" tail.Rules.value
      ~note:(Printf.sprintf "(p%.1f, %d samples beyond, n=%d)" tail.Rules.pct
               tail.Rules.beyond tail.Rules.samples);
  ]

let dir_bytes dir =
  let rec go path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> 0
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc e -> acc + go (Filename.concat path e)) 0
        (Sys.readdir path)
    | { Unix.st_size; _ } -> st_size
  in
  go dir

(* ------------------------------------------------------------------ *)
(* serve-warm                                                          *)
(* ------------------------------------------------------------------ *)

let warm_schemes = [ Scheme.Baseline; Scheme.Catt ]

let warm_cells () = cells_of Workloads.Registry.all warm_schemes

(** Fills a fresh cache directory through the daemon: both tenants walk
    the co-resident pairs, then the warm cells, in the same order, [jobs]
    at a time, so each request's two copies coalesce — one simulates and
    the joining tenant's shard gets its copy from the leader.  A joiner
    holds a worker while it waits, so this daemon gets two workers per
    core.  The pairs are not part of the measured traffic; they are here
    so that set-up covers [Gpu.launch_pair] and the pair cache. *)
let populate reference =
  let cache_dir = fresh "warm" in
  let d = spawn ~jobs:(2 * jobs) cache_dir in
  let tally = Rules.tally () and samples = ref [] in
  ignore @@ per_tenant d ~tally ~samples (fun c i t s ->
      let tenant = tenants.(i) in
      let id j = Printf.sprintf "p%d" j in
      let pairs =
        List.mapi (fun j p -> pair_request reference ~id:(id j) ~tenant p)
          all_pairs
      in
      let cells =
        List.mapi
          (fun j cell ->
            sim_request reference ~kind:Sim_cold ~id:(id (j + List.length pairs))
              ~tenant cell)
          (warm_cells ())
      in
      closed_loop ~depth:jobs ~tally:t ~samples:s c (shared_queue (pairs @ cells)));
  stop d;
  if tally.Rules.failed > 0 then failwith "serve-warm: populating the cache failed";
  cache_dir

(** One round's requests for one tenant, 5 per warm cell, in the seed's
    order: 20% first touches of each cell (a disk hit in a fresh daemon),
    55% repeats of a cell already touched (memo hits), 10% [analyze],
    5% each [explain], [stats] and bad requests.  The counts are fixed,
    so every seed asks for the same amount of each kind of work, and every
    round of a run replays the same requests, so a request's latency can
    be taken over rounds. *)
let round_requests reference rng ~tenant_ix =
  let tenant = tenants.(tenant_ix) in
  let cells = Array.of_list (warm_cells ()) in
  let ncell = Array.length cells in
  let pick () = cells.(Gpu_util.Rng.int rng ncell) in
  let kinds =
    List.concat
      [
        List.init (ncell * 55 / 20) (fun _ -> `Repeat);
        List.init (ncell * 10 / 20) (fun _ -> `Analyze);
        List.init ((ncell * 5 / 20) + 1) (fun _ -> `Explain);
        List.init (ncell * 5 / 20) (fun _ -> `Stats);
        List.init ((ncell * 5 / 20) + 1) (fun _ -> `Bad);
      ]
  in
  (* first touches deal the cells out in the seed's order; a repeat
     picks a cell already touched (the first slot of a round is always a
     first touch) *)
  let firsts = ref (shuffle rng (Array.to_list cells)) in
  let touched = ref [] in
  let slots = shuffle rng (List.init ncell (fun _ -> `First) @ kinds) in
  List.mapi
    (fun i slot ->
      let id = Printf.sprintf "r%d-%d" tenant_ix i in
      match slot with
      | (`First | `Repeat) as slot -> (
        match (slot, !firsts, !touched) with
        | `First, c :: rest, _ | `Repeat, c :: rest, [] ->
          firsts := rest;
          touched := c :: !touched;
          sim_request reference ~kind:Sim_warm ~id ~tenant c
        | _, _, touched ->
          let t = Array.of_list touched in
          sim_request reference ~kind:Sim_warm ~id ~tenant
            t.(Gpu_util.Rng.int rng (Array.length t)))
      | `Analyze -> front_request ~kind:Analyze ~id ~tenant (pick ()).w
      | `Explain -> front_request ~kind:Explain ~id ~tenant (pick ()).w
      | `Stats -> stats_request ~id ~tenant
      | `Bad -> bad_request ~variant:i ~id ~tenant)
    slots

type round = {
  r_samples : sample list;
  r_wall : float;
  r_rss : float;
  r_cpu : float;  (** the daemon's CPU seconds over the round's traffic *)
  r_stats : Json.t;
  r_lag : float list;  (** open loop: generator lateness per request, s *)
}

(** A fresh daemon on the warm cache and one round of traffic.
    [rate = None] is the closed pipelined loop, [Some r] the open loop
    at [r] requests per second (both tenants together). *)
let warm_round ?(trace = false) ?(gc = false) ~tally ~rate ~reference ~warm
    ~seed () =
  let d = spawn ~trace ~gc warm in
  let cpu0 = cpu_s d.pid in
  let samples = ref [] and lags = ref [] in
  let rng = Gpu_util.Rng.create (seed * 7919) in
  let reqs =
    Array.init (Array.length tenants) (fun tenant_ix ->
        round_requests reference (Gpu_util.Rng.split rng) ~tenant_ix)
  in
  let wall =
  match rate with
  | None ->
    per_tenant d ~tally ~samples (fun c i t s ->
        closed_loop ~depth ~tally:t ~samples:s c (shared_queue reqs.(i)))
  | Some rate ->
    let conns = connect_all d in
    (* the tenants take turns, so each sends at half the rate *)
    let per = Array.map Array.of_list reqs in
    let sched =
      List.concat
        (List.init (Array.length per.(0)) (fun k ->
             List.init (Array.length per) (fun i -> (i, per.(i).(k)))))
    in
    let wall, lag = open_loop ~rate ~tally ~samples conns (Array.of_list sched) in
    Array.iter close conns;
    lags := lag;
    wall
  in
  let cpu = cpu_s d.pid -. cpu0 in
  let stats = fetch_stats d.socket in
  let rss = peak_rss_mb d.pid in
  stop d;
  let sim_cells = metric_int stats "sim.cells" in
  if sim_cells <> 0 then begin
    complain "serve-warm: the daemon simulated %d cells" sim_cells;
    Rules.note tally false
  end;
  ( { r_samples = !samples; r_wall = wall; r_rss = rss; r_cpu = cpu;
      r_stats = stats; r_lag = !lags },
    d )

(** Set-up: populate a fresh cache through the daemon, then start the
    daemon fresh on it until it answers.  Returns the median time of [k]
    such set-ups and the last cache directory. *)
let warm_setup ~k reference =
  let runs =
    List.init k (fun _ ->
        let t0 = now () in
        let warm = populate reference in
        let d = spawn warm in
        let dt = now () -. t0 in
        stop d;
        (dt, warm))
  in
  (Rules.median (List.map fst runs), snd (List.nth runs (k - 1)))

(* rounds until [seconds] of round time is spent, at least [min_rounds] *)
let rounds ~seconds ~min_rounds f =
  let start = now () in
  let rec go i acc =
    if i >= min_rounds && now () -. start >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let warm ~seed ~seconds =
  let reference = load_reference () in
  let setup_s, warm = warm_setup ~k:3 reference in
  let tally = Rules.tally () in
  let round_of rate _ = fst (warm_round ~tally ~rate ~reference ~warm ~seed ()) in
  let closed = rounds ~seconds:(seconds /. 2.) ~min_rounds:5 (round_of None) in
  let opened =
    rounds ~seconds:(seconds /. 2.) ~min_rounds:5 (round_of (Some open_rate))
  in
  let throughput =
    Rules.median
      (List.map
         (fun r -> float_of_int (List.length r.r_samples) /. r.r_wall)
         closed)
  in
  (* a request's latency is its least over the open-loop rounds, which all
     send the same requests on the same schedule: the host's stalls and the
     time it gives other tenants come and go between rounds, and what
     remains is the time the daemon needs (see README.md) *)
  let ms =
    List.concat_map
      (fun r ->
        List.map
          (fun s ->
            (s.req.id, Rules.due_latency ~due:s.due ~received:s.received *. 1e3))
          r.r_samples)
      opened
    |> Rules.min_by_key |> List.map snd
  in
  let lag =
    Rules.tail
      (List.concat_map (fun r -> List.map (fun l -> l *. 1e3) r.r_lag) opened)
  in
  (* summed over the rounds: one round's few hundredths of a second are
     too few clock ticks to divide *)
  let sum f = List.fold_left (fun a r -> a +. f r) 0. closed in
  let cpu_ms =
    sum (fun r -> r.r_cpu) *. 1e3
    /. sum (fun r -> float_of_int (List.length r.r_samples))
  in
  info ~workload:"serve-warm" "throughput_ops_s" "1/s" throughput
    ~note:(Printf.sprintf "(median of %d closed-loop rounds)"
             (List.length closed));
  info ~workload:"serve-warm" "harness.gen_lag_tail_ms" "ms" lag.Rules.value
    ~note:(Printf.sprintf "(p%.1f of generator lateness)" lag.Rules.pct);
  ( tally,
    [
      metric "setup_s" "s" setup_s;
      metric "cpu_ms_per_op" "ms" cpu_ms
        ~note:(Printf.sprintf "(%d closed-loop rounds)" (List.length closed));
    ]
    @ latency_metrics ms
    @ [
        metric "peak_rss_mb" "MB"
          (List.fold_left (fun a r -> Float.max a r.r_rss) 0. (closed @ opened));
      ] )

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

(* the daemon's spans, as (trace id, layer span) in seconds of its own
   clock, plus the runner.run source attribute *)
type dspan = {
  trace_id : string;
  name : string;
  ts : float;
  dur : float;
  source : string;
}

let read_trace path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error msg -> failwith ("trace: " ^ msg)
  | Ok j ->
    List.filter_map
      (fun e ->
        if Json.to_str (Json.member "ph" e) <> "X" then None
        else
          let args = Option.value ~default:(Json.Obj []) (Json.member_opt "args" e) in
          let str k =
            match Json.member_opt k args with
            | Some (Json.String s) -> s
            | _ -> ""
          in
          Some
            {
              trace_id = str "trace_id";
              name = Json.to_str (Json.member "name" e);
              ts = Json.to_float (Json.member "ts" e) /. 1e6;
              dur = Json.to_float (Json.member "dur" e) /. 1e6;
              source = str "source";
            })
      (Json.to_list (Json.member "traceEvents" j))

let layer_of_span = function
  | "serve.request" -> "serve"
  | "pool.task" -> "pool"
  | "runner.run" | "runner.co_resident" -> "runner"
  | "runner.simulate" -> "workloads"
  | "catt.analyze" | "catt.decide" | "catt.footprint" -> "catt"
  | "gpu.launch" | "gpu.launch_pair" -> "gpusim"
  | other -> other

type fold_out = {
  self : (string, float) Hashtbl.t;  (** layer -> summed self time, s *)
  mutable residual : float;
  mutable op_time : float;
  mutable queue_wait : float list;
  mutable handler : float list;
  mutable write_wait : float list;
  mutable memo_s : float list;
  mutable disk_s : float list;
  sources : (string, int) Hashtbl.t;
}

let new_fold () =
  {
    self = Hashtbl.create 8; residual = 0.; op_time = 0.; queue_wait = [];
    handler = []; write_wait = []; memo_s = []; disk_s = [];
    sources = Hashtbl.create 4;
  }

(** Joins one daemon's spans to the client samples it served, by trace
    id, and folds them into [out].  The daemon's clock starts at its own
    launch, so it is placed at the latest offset that keeps every
    request's first span from starting before the client sent it; spans
    are then clipped to their request's send-to-receive interval.  What
    no daemon span covers (the wire, framing, the client) is the
    residual. *)
let fold_daemon out samples spans =
  let by_id = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.trace_id <> "" then
        Hashtbl.replace by_id s.trace_id
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_id s.trace_id)))
    spans;
  let offset =
    List.fold_left
      (fun acc s ->
        match Hashtbl.find_opt by_id s.req.id with
        | None -> acc
        | Some ds ->
          let first = List.fold_left (fun a d -> Float.min a d.ts) infinity ds in
          Float.max acc (s.sent -. first))
      neg_infinity samples
  in
  let add l v =
    Hashtbl.replace out.self l
      (v +. Option.value ~default:0. (Hashtbl.find_opt out.self l))
  in
  List.iter
    (fun s ->
      let total = s.received -. s.sent in
      out.op_time <- out.op_time +. total;
      let ds = Option.value ~default:[] (Hashtbl.find_opt by_id s.req.id) in
      let clip t = Float.min s.received (Float.max s.sent (t +. offset)) in
      let rs =
        List.mapi
          (fun i d ->
            {
              Rules.id = i;
              parent = None;
              layer = layer_of_span d.name;
              start = clip d.ts;
              stop = clip (d.ts +. d.dur);
            })
          ds
      in
      let layers, res = Rules.fold ~total (Rules.nest rs) in
      List.iter (fun (l, v) -> add l v) layers;
      out.residual <- out.residual +. res;
      List.iter
        (fun d ->
          match d.name with
          | "pool.task" ->
            out.queue_wait <- (clip d.ts -. s.sent) :: out.queue_wait;
            out.write_wait <- (s.received -. clip (d.ts +. d.dur)) :: out.write_wait
          | "serve.request" -> out.handler <- d.dur :: out.handler
          | "runner.run" ->
            Hashtbl.replace out.sources d.source
              (1 + Option.value ~default:0 (Hashtbl.find_opt out.sources d.source));
            if d.source = "memo" then out.memo_s <- d.dur :: out.memo_s
            else if d.source = "cache hit" then out.disk_s <- d.dur :: out.disk_s
          | _ -> ())
        ds)
    samples

(* in-process costs of the layers with no daemon span, over the cells a
   run touched: the cache's load and store, the JSON decode of a hit,
   the reply encoding, and the protocol's line parse *)
let in_process_layers ~cache_dir ~lines cells =
  let module Cache = Experiments.Cache in
  Cache.enabled := true;
  let scratch = fresh "store" in
  let loads = ref [] and stores = ref [] and decodes = ref [] and encodes = ref [] in
  List.iter
    (fun (tenant, c) ->
      let workload = c.w.Workloads.Workload.name and scheme = Scheme.label c.scheme in
      Cache.dir := cache_dir;
      let j, dt =
        time (fun () -> Cache.load ~tenant cfg ~workload ~scheme ~seed:Runner.seed)
      in
      match j with
      | None -> ()
      | Some j ->
        loads := dt :: !loads;
        let text = Json.to_string ~pretty:true j in
        let r, dt =
          time (fun () ->
              match Json.of_string text with
              | Ok j -> Runner.run_of_json cfg c.w c.scheme j
              | Error e -> Error e)
        in
        decodes := dt :: !decodes;
        Cache.dir := scratch;
        let (), dt =
          time (fun () -> Cache.store ~tenant cfg ~workload ~scheme ~seed:Runner.seed j)
        in
        stores := dt :: !stores;
        Result.iter
          (fun r ->
            let _, dt =
              time (fun () ->
                  Protocol.response_to_line
                    { Protocol.resp_id = "x"; resp_tenant = tenant;
                      result = Ok (Serve.Server.run_summary r) })
            in
            encodes := dt :: !encodes)
          r)
    cells;
  Cache.enabled := false;
  let parses =
    List.map (fun l -> snd (time (fun () -> Protocol.request_of_line l))) lines
  in
  let us xs = Rules.mean (List.map (fun s -> s *. 1e6) xs) in
  [
    metric "cache.load_us" "us" (us !loads);
    metric "cache.store_us" "us" (us !stores);
    metric "json.decode_us_per_hit" "us" (us !decodes);
    metric "json.encode_us_per_op" "us" (us !encodes);
    metric "serve.parse_us" "us" (us parses);
  ]

(** Per-layer metrics of traced serve traffic: [samples] and the spans
    of the daemons that served them, the daemons' final [stats] replies
    and GC summaries. *)
let serve_layers ~groups ~stats ~gcs ~wall ~overhead_pct =
  let f = new_fold () in
  List.iter (fun (samples, spans) -> fold_daemon f samples spans) groups;
  let samples = List.concat_map fst groups in
  let n = float_of_int (max 1 (List.length samples)) in
  let self l = Option.value ~default:0. (Hashtbl.find_opt f.self l) in
  let pct v = 100. *. v /. f.op_time in
  let sum_metric name = List.fold_left (fun a s -> a + metric_int s name) 0 stats in
  let max_metric name = List.fold_left (fun a s -> max a (metric_int s name)) 0 stats in
  let cache name =
    List.fold_left (fun a s -> a + Json.to_int (Json.member name (Json.member "cache" s))) 0 stats
  in
  let sources = float_of_int (Hashtbl.fold (fun _ v a -> a + v) f.sources 0) in
  let share src =
    if sources = 0. then 0.
    else float_of_int (Option.value ~default:0 (Hashtbl.find_opt f.sources src)) /. sources
  in
  let us xs = if xs = [] then 0. else Rules.mean (List.map (fun s -> s *. 1e6) xs) in
  let gc_sum g = List.fold_left (fun a s -> a +. g s) 0. gcs in
  let pool_busy_s = float_of_int (sum_metric "pool.busy_us") /. 1e6 in
  [
    metric "sim.cells_delta" "count" (float_of_int (sum_metric "sim.cells"));
    metric "runner.memo_hit_us" "us" (us f.memo_s);
    metric "runner.disk_hit_us" "us" (us f.disk_s);
    metric "runner.memo_share" "share" (share "memo");
    metric "runner.disk_share" "share" (share "cache hit");
    metric "runner.simulated_share" "share" (share "cache miss");
    metric "runner.coalesced" "count" (float_of_int (sum_metric "runner.coalesced"));
    metric "cache.bytes_on_disk" "bytes" 0.;
    metric "cache.hits" "count" (float_of_int (cache "hits"));
    metric "cache.misses" "count" (float_of_int (cache "misses"));
    metric "cache.stores" "count" (float_of_int (cache "stores"));
    metric "json.response_bytes_mean" "bytes"
      (Rules.mean (List.map (fun s -> float_of_int s.bytes) samples));
    metric "serve.queue_wait_us" "us" (us f.queue_wait);
    metric "serve.handler_us" "us" (us f.handler);
    metric "serve.write_wait_us" "us" (us f.write_wait);
    metric "serve.overloaded" "count" (float_of_int (sum_metric "serve.overloaded"));
    metric "pool.tasks" "count" (float_of_int (sum_metric "pool.tasks"));
    metric "pool.busy_share" "share" (pool_busy_s /. (wall *. float_of_int jobs));
    metric "pool.queue_depth_peak" "count" (float_of_int (max_metric "pool.queue_depth.peak"));
    metric "gc.minor_words_per_op" "words" (gc_sum (fun g -> g.Gc_events.minor_words) /. n);
    metric "gc.minor_collections" "count"
      (gc_sum (fun g -> float_of_int g.Gc_events.minor_collections));
    metric "gc.major_collections" "count"
      (gc_sum (fun g -> float_of_int g.Gc_events.major_collections));
    metric "gc.pause_ms_total" "ms" (gc_sum (fun g -> g.Gc_events.pause_ms_total));
    metric "gc.pause_ms_max" "ms"
      (List.fold_left (fun a g -> Float.max a g.Gc_events.pause_ms_max) 0. gcs);
    metric "self.gpusim_pct" "pct" (pct (self "gpusim"));
    metric "self.runner_pct" "pct" (pct (self "runner"));
    metric "self.workloads_pct" "pct" (pct (self "workloads"));
    metric "self.catt_pct" "pct" (pct (self "catt"));
    metric "self.serve_pct" "pct" (pct (self "serve"));
    metric "self.pool_pct" "pct" (pct (self "pool"));
    metric "self.queue_wait_pct" "pct"
      (pct (List.fold_left ( +. ) 0. f.queue_wait));
    metric "self.write_wait_pct" "pct"
      (pct (List.fold_left ( +. ) 0. f.write_wait));
    metric "harness.residual_pct" "pct" (pct f.residual);
    metric "harness.trace_overhead_pct" "pct" overhead_pct;
  ]

let replace name v metrics =
  List.map
    (fun (m : metric) -> if m.name = name then { m with value = v } else m)
    metrics

(* the (tenant, cell) pairs whose results a run left in the cache, each
   once *)
let served samples =
  let seen = Hashtbl.create 128 in
  List.filter_map
    (fun s ->
      match s.req.cell with
      | Some c when not (Hashtbl.mem seen (s.req.tenant, cell_key c)) ->
        Hashtbl.add seen (s.req.tenant, cell_key c) ();
        Some (s.req.tenant, c)
      | _ -> None)
    samples

let spans_of d = match d.trace_out with Some p -> read_trace p | None -> []

let warm_traced ~seed ~seconds =
  let reference = load_reference () in
  let _, warm = warm_setup ~k:1 reference in
  let tally = Rules.tally () in
  let n = max 3 (int_of_float (seconds /. 2.)) in
  let plain =
    List.init n (fun _ ->
        fst (warm_round ~tally ~rate:None ~reference ~warm ~seed ()))
  in
  let traced =
    List.init n (fun _ ->
        warm_round ~trace:true ~gc:true ~tally ~rate:None ~reference ~warm ~seed ())
  in
  let opened =
    List.init n (fun _ ->
        fst (warm_round ~tally ~rate:(Some open_rate) ~reference ~warm ~seed ()))
  in
  let thr r = float_of_int (List.length r.r_samples) /. r.r_wall in
  let overhead =
    100. *. ((Rules.median (List.map thr plain)
              /. Rules.median (List.map (fun (r, _) -> thr r) traced)) -. 1.)
  in
  let samples = List.concat_map (fun (r, _) -> r.r_samples) traced in
  let layers =
    serve_layers
      ~groups:(List.map (fun (r, d) -> (r.r_samples, spans_of d)) traced)
      ~stats:(List.map (fun (r, _) -> r.r_stats) traced)
      ~gcs:(List.filter_map (fun (_, d) -> Option.map Gc_events.finish d.gc) traced)
      ~wall:(List.fold_left (fun a (r, _) -> a +. r.r_wall) 0. traced)
      ~overhead_pct:overhead
  in
  let lag =
    Rules.tail (List.concat_map (fun r -> List.map (fun l -> l *. 1e3) r.r_lag) opened)
  in
  let inproc =
    in_process_layers ~cache_dir:warm
      ~lines:(List.map (fun s -> s.req.line) samples)
      (served samples)
  in
  let layers =
    replace "cache.bytes_on_disk" (float_of_int (dir_bytes warm)) layers
  in
  (tally, layers @ inproc @ [ metric "harness.gen_lag_p99_ms" "ms" lag.Rules.value
                                ~note:(Printf.sprintf "(p%.1f)" lag.Rules.pct) ])
