(** Static collection of per-loop off-chip access patterns.

    For every top-level loop of a kernel (the granularity at which CATT
    makes throttling decisions and transforms code), this pass reports the
    global-memory accesses lexically inside it — including those in nested
    loops — with their {!Affine} index expressions.  It is a reading of
    the one loop-analysis walk, {!Staticmodel.Gaccess.analyze}: each report
    projects one of that pass's loops and keeps its records alongside.

    Loop accumulators ([acc += stride] patterns) are widened to
    [init + stride·iter]; any variable mutated in a non-affine way becomes
    {!Affine.Unknown}, which downstream analysis treats with the paper's
    conservative irregular-access rule.  After an [if], a variable keeps
    its value when both arms agree on it. *)

(** Launch geometry, shared with the sanitizer (same record type). *)
type geometry = Sanitize.Geom.t = {
  grid_x : int;
  grid_y : int;
  block_x : int;
  block_y : int;
}

type access = {
  array : string;
  index : Affine.value;
  is_load : bool;
  is_store : bool;
  innermost_iter : string option;
      (** iterator of the innermost loop containing the access — the [i]
          whose coefficient Eq. 6 tests *)
}

type loop_report = {
  loop_id : int;  (** pre-order index among the kernel's top-level loops *)
  loop_var : string;
  accesses : access list;  (** deduplicated, in first-occurrence order *)
  has_barrier : bool;
      (** body reaches [__syncthreads()]: such loops are never warp-split *)
  gaccesses : Staticmodel.Gaccess.gaccess list;
      (** the walk's records for the same accesses, one for one with
          [accesses]: intervals and uniformity, read by the catt-sa
          footprint *)
}

val analyze_kernel :
  Minicuda.Ast.kernel -> geometry -> loop_report list
(** Reports for each top-level loop, in source order.  The kernel must
    typecheck (shared arrays are recognized and excluded from off-chip
    accesses). *)
