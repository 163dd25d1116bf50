(** All-domain GC accounting from the runtime's event rings
    ([Runtime_events]), read by a cursor on this process or on another
    one's ring file.  [Gc.minor_words] counts the calling domain only;
    the rings carry one stream per domain, so a pool's workers are
    counted too.

    Minor words come from [EV_C_MINOR_ALLOCATED] (bytes allocated in the
    minor heap, emitted at each minor collection), so words allocated
    since a domain's last minor collection are not yet counted — at most
    one minor heap per domain.  A pause is one [EV_MINOR] or
    [EV_MAJOR_SLICE] phase on one domain, begin to end. *)

type t = {
  cursor : Runtime_events.cursor;
  mutable callbacks : Runtime_events.Callbacks.t;
  lock : Mutex.t;
  mutable minor_bytes : int;
  mutable minors : int;
  major_cycles : (int, int) Hashtbl.t;  (** ring -> finished cycles *)
  mutable pause_ns : int;
  mutable pause_max_ns : int;
  mutable lost : int;
  opened : (int * Runtime_events.runtime_phase, int64) Hashtbl.t;
  mutable stop : bool;
  mutable poller : Thread.t option;
}

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let make cursor =
  let t =
    {
      cursor;
      callbacks = Runtime_events.Callbacks.create ();
      lock = Mutex.create ();
      minor_bytes = 0;
      minors = 0;
      major_cycles = Hashtbl.create 4;
      pause_ns = 0;
      pause_max_ns = 0;
      lost = 0;
      opened = Hashtbl.create 8;
      stop = false;
      poller = None;
    }
  in
  t.callbacks <-
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if is_pause phase then
          Hashtbl.replace t.opened (ring, phase)
            (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun ring ts phase ->
        (match phase with
        | Runtime_events.EV_MINOR -> t.minors <- t.minors + 1
        | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS ->
          let n = Option.value ~default:0 (Hashtbl.find_opt t.major_cycles ring) in
          Hashtbl.replace t.major_cycles ring (n + 1)
        | _ -> ());
        match Hashtbl.find_opt t.opened (ring, phase) with
        | Some t0 ->
          Hashtbl.remove t.opened (ring, phase);
          let d =
            Int64.to_int
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0)
          in
          t.pause_ns <- t.pause_ns + d;
          if d > t.pause_max_ns then t.pause_max_ns <- d
        | None -> ())
      ~runtime_counter:(fun _ring _ts counter v ->
        match counter with
        | Runtime_events.EV_C_MINOR_ALLOCATED ->
          t.minor_bytes <- t.minor_bytes + v
        | _ -> ())
      ~lost_events:(fun _ring n -> t.lost <- t.lost + n)
      ();
  t

let poll t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> ignore (Runtime_events.read_poll t.cursor t.callbacks None))

(* drain the rings every 20 ms so a long collection-heavy stretch cannot
   wrap a ring between reads *)
let start_poller t =
  t.poller <-
    Some
      (Thread.create
         (fun () ->
           while not t.stop do
             poll t;
             Thread.delay 0.02
           done)
         ())

(** Accounting for this process, from now on. *)
let in_process () =
  Runtime_events.start ();
  let t = make (Runtime_events.create_cursor None) in
  poll t;
  (* discard what happened before the call *)
  Mutex.lock t.lock;
  t.minor_bytes <- 0;
  t.minors <- 0;
  Hashtbl.reset t.major_cycles;
  t.pause_ns <- 0;
  t.pause_max_ns <- 0;
  Mutex.unlock t.lock;
  start_poller t;
  t

(** Accounting for process [pid], started with
    [OCAML_RUNTIME_EVENTS_START=1] and its ring file in [dir]. *)
let attach ~dir ~pid =
  let t = make (Runtime_events.create_cursor (Some (dir, pid))) in
  start_poller t;
  t

type summary = {
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  pause_ms_total : float;
  pause_ms_max : float;
  lost_events : int;
}

(** Stops polling (after a last read) and returns the totals. *)
let finish t =
  t.stop <- true;
  Option.iter Thread.join t.poller;
  poll t;
  Runtime_events.free_cursor t.cursor;
  {
    minor_words = float_of_int t.minor_bytes /. float_of_int (Sys.word_size / 8);
    minor_collections = t.minors;
    major_collections = Hashtbl.fold (fun _ n acc -> max n acc) t.major_cycles 0;
    pause_ms_total = float_of_int t.pause_ns /. 1e6;
    pause_ms_max = float_of_int t.pause_max_ns /. 1e6;
    lost_events = t.lost;
  }
