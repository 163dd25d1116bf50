(** The benchmark's own arithmetic: order statistics, the tail-percentile
    rule, open-loop timing, the span self-time fold and failure counting.
    Pure functions only, so the test suite can pin each rule. *)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Median with the mean of the two middle values for even counts;
    [nan] for no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(** [f] of the values per key, keys in first-seen order: one value per
    repeated measurement of the same thing, e.g. a cell's time in each
    pass. *)
let by_key f kvs =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some vs -> Hashtbl.replace tbl k (v :: vs)
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k [ v ])
    kvs;
  List.rev_map (fun k -> (k, f (Hashtbl.find tbl k))) !order

let median_by_key kvs = by_key median kvs

(** The least value per key: the time an op takes when nothing outside
    it intervenes, over its repeats. *)
let min_by_key kvs = by_key (List.fold_left Float.min infinity) kvs

type tail = {
  pct : float;  (** the percentile reported, in [0, 99] *)
  value : float;
  beyond : int;  (** samples strictly above the reported rank *)
  samples : int;
}

(** The highest percentile that still has at least ten samples beyond
    it, capped at p99.  With [n] samples sorted ascending, the value at
    1-based rank [r] has [n - r] samples beyond it, so the rule picks
    rank [n - 10] (percentile [100 (n - 10) / n]) — or the p99 rank
    [ceil (0.99 n)] once that is lower.  With ten samples or fewer no
    rank qualifies, and the median is reported instead. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { pct = nan; value = nan; beyond = 0; samples = 0 }
  else if n <= 10 then
    let r = (n + 1) / 2 in
    { pct = 50.; value = a.(r - 1); beyond = n - r; samples = n }
  else
    let r99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) in
    let r = min (n - 10) r99 in
    {
      pct = 100. *. float_of_int r /. float_of_int n;
      value = a.(r - 1);
      beyond = n - r;
      samples = n;
    }

(* ------------------------------------------------------------------ *)
(* Open-loop timing                                                    *)
(* ------------------------------------------------------------------ *)

(** Due time of the [i]-th request (0-based) of a fixed-rate schedule. *)
let due ~start ~rate i = start +. (float_of_int i /. rate)

(** Latency of an open-loop request counts from when it was due, not
    from when the generator got round to sending it: a stall that delays
    later sends shows up in their latency. *)
let due_latency ~due ~received = received -. due

(** How late the generator sent a request (0 when on time). *)
let lateness ~due ~sent = Float.max 0. (sent -. due)

(* ------------------------------------------------------------------ *)
(* Span self-time fold                                                 *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  layer : string;
  start : float;
  stop : float;
}

(* total length of the union of intervals, each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** A span's self time: its duration minus the part of it that its
    children cover (overlapping children counted once). *)
let self_time span ~children =
  let d = span.stop -. span.start in
  d -. covered ~lo:span.start ~hi:span.stop
         (List.map (fun c -> (c.start, c.stop)) children)

(** Folds the spans of one op into per-layer self time.  Returns the
    layers with their summed self time (in first-seen order) and the
    residual: the part of [total] (the op's end-to-end time) that no
    span's self time accounts for.  Self times plus the residual sum to
    [total] by construction. *)
let fold ~total spans =
  let children id = List.filter (fun s -> s.parent = Some id) spans in
  let layers = ref [] in
  List.iter
    (fun s ->
      let self = self_time s ~children:(children s.id) in
      match List.assoc_opt s.layer !layers with
      | Some r -> r := !r +. self
      | None -> layers := !layers @ [ (s.layer, ref self) ])
    spans;
  let layers = List.map (fun (l, r) -> (l, !r)) !layers in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. layers in
  (layers, total -. attributed)

(** Nests flat intervals by containment, as a single-threaded tracer
    would have: sorted by start (longest first on ties), each span's
    parent is the innermost earlier span that still contains it.
    Returns the spans with [parent] filled in; [root] (if given)
    parents every span nothing else contains. *)
let nest ?root spans =
  let spans =
    List.sort
      (fun a b ->
        match compare a.start b.start with
        | 0 -> compare (b.stop -. b.start) (a.stop -. a.start)
        | c -> c)
      spans
  in
  let stack = ref [] in
  List.map
    (fun s ->
      let rec pop = function
        | top :: rest when top.stop < s.stop || top.start > s.start -> pop rest
        | st -> st
      in
      stack := pop !stack;
      let parent =
        match !stack with top :: _ -> Some top.id | [] -> root
      in
      let s = { s with parent } in
      stack := s :: !stack;
      s)
    spans

(* ------------------------------------------------------------------ *)
(* Failure counting                                                    *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(** Records one op; a failed check makes it a failed op. *)
let note t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_share t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted
