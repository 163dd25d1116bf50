(** L1D footprint estimation — the paper's Eqs. 6, 7 and 8.

    For every access collected by {!Analysis}, [req_warp] counts the cache
    lines one warp's execution of the instruction touches.  Regular
    accesses are counted exactly by enumerating the 32 lane addresses
    (which reduces to Eq. 7's [min(C_tid, warp_size)] for 1-D thread
    blocks and handles multidimensional TBs the way the paper's Section 4.2
    fallback does); irregular (data-dependent) accesses are modeled as
    fully uncoalesced, one request per thread — [warp_size] lines per
    warp, Section 4.2's treatment of accesses the affine analysis cannot
    bound. *)

type access_summary = {
  access : Analysis.access;
  req_warp : int;  (** Eq. 7: lines requested by one warp *)
  has_reuse : bool;  (** Eq. 6: the fetched line is re-accessed next iteration *)
  irregular : bool;
}

type loop_footprint = {
  loop : Analysis.loop_report;
  summaries : access_summary list;
  req_per_warp : int;  (** Σ over off-chip instructions of [req_warp] *)
  shared_lines : int;
      (** lines counted once per SM regardless of warp count — inter-warp
          shared tiers of the sharpened model; always [0] under the plain
          Eq. 8 constructor {!of_loop} *)
  has_locality : bool;  (** some access has cross-iteration reuse *)
  any_irregular : bool;
}

val req_warp :
  line_bytes:int -> warp_size:int -> block_x:int -> Affine.value -> int
(** Lines per warp for one access (Eq. 7; exact lane enumeration). *)

val has_reuse : line_bytes:int -> Analysis.access -> bool
(** Eq. 6 on the access's innermost enclosing iterator. *)

val dedupe_accesses : Analysis.access list -> Analysis.access list
(** Merge accesses with equal (array, index) — a read-modify-write is one
    request stream — before summing Eq. 8.  First-occurrence order. *)

val of_loop :
  line_bytes:int ->
  warp_size:int ->
  block_x:int ->
  Analysis.loop_report ->
  loop_footprint

val of_loop_sa :
  line_bytes:int ->
  warp_size:int ->
  block_x:int ->
  tbs:int ->
  Analysis.loop_report ->
  loop_footprint
(** The sharpened (catt-sa) footprint: cross-access line unions,
    inter-warp sharing tiers (TB-tier folded in at [tbs] residency) and
    interval-bounded irregular accesses, read from the report's
    [gaccesses] (so [accesses] and [gaccesses] must pair up one for one,
    as {!Analysis.analyze_kernel} builds them). *)

val size_req_lines : loop_footprint -> concurrent_warps:int -> int
(** Eq. 8: lines touched by all concurrently active warps on an SM, plus
    the once-per-SM [shared_lines] tier. *)

val size_req_bytes :
  line_bytes:int -> loop_footprint -> concurrent_warps:int -> int
