(* CIAO-style interference monitor (Li et al., PAPERS.md): identify the
   warps whose L1D fills keep evicting *other* warps' lines, and redirect
   their global loads around the cache — or, when bypassing itself
   saturates the NoC/DRAM path, exclude them from the scheduler pool
   instead.  One instance per SM, driven from the load path:

   - [on_access] is called once per L1D load transaction and returns
     whether this access must bypass the L1D by policy;
   - [on_evict] is called when a fill displaces a valid line, with the
     filling warp and the victim line.

   Attribution uses a small direct-mapped line-owner table (last warp to
   touch each line); a fill whose victim is owned by a different warp
   bumps the filler's interference score.  Nothing is selected during the
   warm-up interval, so short or single-warp launches never bypass at
   all (the scheme-semantics property tests rely on this).  Selection is
   re-evaluated every [epoch] accesses: the top [top_k] warps whose score
   clears [threshold] are flagged, scores are halved (stale interference
   ages out), and the mode flips to throttling when more than [pressure]
   of the previous epoch's accesses were bypassed — the CIAO fallback for
   when bypassing only moves the contention down a level. *)

type mode = Bypass_mode | Throttle_mode

type t = {
  warmup : int;  (* accesses before the first selection *)
  epoch : int;  (* accesses between re-evaluations *)
  top_k : int;  (* most-interfering warps flagged per SM *)
  threshold : int;  (* minimum score to be flagged *)
  pressure : float;  (* bypassed fraction that flips to throttling *)
  owners : int array;  (* direct-mapped: owning warp age, -1 = empty *)
  owner_lines : int array;  (* the line each owner slot describes *)
  scores : (int, int ref) Hashtbl.t;  (* warp age -> interference score *)
  mutable accesses : int;
  mutable epoch_accesses : int;
  mutable epoch_bypassed : int;
  mutable mode : mode;
  mutable flagged : int array;  (* currently selected warp ages *)
}

let create ?(warmup = 512) ?(epoch = 2048) ?(top_k = 2) ?(threshold = 8)
    ?(pressure = 0.5) ?(owner_entries = 4096) () =
  if warmup < 1 then invalid_arg "Interference.create: warmup must be >= 1";
  if epoch < 1 then invalid_arg "Interference.create: epoch must be >= 1";
  {
    warmup;
    epoch;
    top_k = max 0 top_k;
    threshold = max 1 threshold;
    pressure;
    owners = Array.make (max 1 owner_entries) (-1);
    owner_lines = Array.make (max 1 owner_entries) (-1);
    scores = Hashtbl.create 64;
    accesses = 0;
    epoch_accesses = 0;
    epoch_bypassed = 0;
    mode = Bypass_mode;
    flagged = [||];
  }

let mode t = t.mode

let flagged t = Array.to_list t.flagged

let score t ~warp_id =
  match Hashtbl.find_opt t.scores warp_id with Some r -> !r | None -> 0

(* flagged is tiny (top_k entries): a linear scan beats any set here.
   Top-level, not a local closure over [t]: it runs once per access. *)
let rec flagged_from (flagged : int array) warp_id i =
  i < Array.length flagged
  && (flagged.(i) = warp_id || flagged_from flagged warp_id (i + 1))

let is_flagged t warp_id = flagged_from t.flagged warp_id 0

let on_evict t ~filler ~victim_line =
  let slot = victim_line mod Array.length t.owners in
  if t.owner_lines.(slot) = victim_line then begin
    let owner = t.owners.(slot) in
    if owner >= 0 && owner <> filler then begin
      (* [find] rather than [find_opt]: no [Some] box per eviction *)
      match Hashtbl.find t.scores filler with
      | r -> incr r
      | exception Not_found -> Hashtbl.add t.scores filler (ref 1)
    end
  end

let reevaluate t =
  (* top_k warps by (score desc, age asc), score >= threshold.  The sort
     runs once per epoch on the handful of scored warps — not hot. *)
  let ranked =
    List.sort
      (fun (w1, s1) (w2, s2) ->
        if s1 <> s2 then compare s2 s1 else compare w1 w2)
      (Hashtbl.fold
         (fun w r acc -> if !r >= t.threshold then (w, !r) :: acc else acc)
         t.scores [])
  in
  let rec take k = function
    | (w, _) :: rest when k > 0 -> w :: take (k - 1) rest
    | _ -> []
  in
  t.flagged <- Array.of_list (take t.top_k ranked);
  (* bypassing that covers most of the traffic is just contention moved
     to the NoC/DRAM: fall back to throttling the same warps *)
  t.mode <-
    (if
       t.epoch_accesses > 0
       && float_of_int t.epoch_bypassed /. float_of_int t.epoch_accesses
          > t.pressure
     then Throttle_mode
     else Bypass_mode);
  t.epoch_accesses <- 0;
  t.epoch_bypassed <- 0;
  (* decay: halve every score so sustained interference dominates *)
  Hashtbl.iter (fun _ r -> r := !r / 2) t.scores

let on_access t ~warp_id ~line =
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.warmup && (t.accesses - t.warmup) mod t.epoch = 0 then
    reevaluate t;
  t.epoch_accesses <- t.epoch_accesses + 1;
  if t.mode = Bypass_mode && is_flagged t warp_id then begin
    t.epoch_bypassed <- t.epoch_bypassed + 1;
    true
  end
  else begin
    (* the access goes through the L1D: this warp now owns the line *)
    let slot = line mod Array.length t.owners in
    t.owners.(slot) <- warp_id;
    t.owner_lines.(slot) <- line;
    false
  end

let can_exclude t = t.mode = Throttle_mode && Array.length t.flagged > 0

let throttle_excluded t ~warp_id =
  t.mode = Throttle_mode && is_flagged t warp_id
