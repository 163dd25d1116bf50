(** Affine index expressions — the paper's Eq. 5 generalized.

    The paper models an array index as [C_tid * tid + C_i * i].  To handle
    2-D grids and 2-D thread blocks (e.g. SYR2K) we track one coefficient
    per builtin axis plus one per enclosing loop iterator:

    [const + c_tx·threadIdx.x + c_ty·threadIdx.y
           + c_bx·blockIdx.x  + c_by·blockIdx.y  + Σ c_ℓ·iter_ℓ]

    Coefficients are exact integers; any expression outside this form
    (modulo, data-dependent indices like [col[j]], float arithmetic) is
    {!Unknown} — the analyzer then falls back to the paper's conservative
    [C_tid = 1] rule (Section 4.2). *)

type t = {
  const : int;
  c_tx : int;
  c_ty : int;
  c_bx : int;
  c_by : int;
  iters : (string * int) list;  (** loop variable → coefficient, sorted *)
}

type value = Affine of t | Unknown

val const : int -> t
val of_builtin : Minicuda.Ast.builtin_var -> bdim_x:int -> bdim_y:int -> grid_x:int -> t option
(** Builtins with statically known values ([blockDim]/[gridDim] under a
    fixed launch geometry) become constants; index builtins become basis
    vectors.  [None] for [gridDim.y] appearing in an index (unused by every
    workload; kept conservative). *)

val iter : string -> t
(** The basis vector of a loop iterator. *)

val add : value -> value -> value
val sub : value -> value -> value
val neg : value -> value
val mul : value -> value -> value
(** Product is affine only when one side is a constant. *)

val div_exact : value -> int -> value
(** Division by a constant that exactly divides every coefficient —
    anything else is {!Unknown} (integer division does not distribute). *)

val coeff_of_iter : t -> string -> int
(** 0 when the iterator does not appear. *)

val drop_iter : t -> string -> t

val is_constant : t -> bool

val eval_lane :
  t -> bdim_x:int -> lane:int -> base_linear_tid:int -> int
(** Element index touched by [lane] of a warp whose first thread has
    intra-block linear id [base_linear_tid], with all loop iterators and
    block indices at 0 — the per-warp address shape used to count
    coalesced requests (Eq. 7). *)

val equal : t -> t -> bool

val equal_value : value -> value -> bool
(** Equality on the affine domain: two [Unknown]s compare equal (one
    irregular request stream per array), affine forms structurally. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
