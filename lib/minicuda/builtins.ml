(** Math builtins callable from mini-CUDA kernels.

    GPU kernels in the evaluated suites only call a handful of intrinsics;
    each entry records the arity, the result type and the float
    implementation used by the simulator's functional model. *)

type signature = {
  name : string;
  arity : int;
  returns : Ast.ty;
  apply : float array -> unit;
      (* float semantics, in place: reads the arguments from
         [a.(0 .. arity-1)] and stores the result in [a.(0)], so no float
         crosses the call boxed — the simulator calls this once per lane.
         Integer callers are converted at the call site. *)
}

let[@inline] clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

(* [min]/[max] spelled out on floats: the polymorphic ones would box both
   arguments, and on floats they compute exactly this *)
let all : signature list =
  let unary name returns f = { name; arity = 1; returns; apply = f } in
  let binary name returns f = { name; arity = 2; returns; apply = f } in
  [
    unary "sqrtf" Ast.Float (fun a -> a.(0) <- sqrt a.(0));
    unary "expf" Ast.Float (fun a -> a.(0) <- exp a.(0));
    unary "logf" Ast.Float (fun a -> a.(0) <- log a.(0));
    unary "fabsf" Ast.Float (fun a -> a.(0) <- abs_float a.(0));
    unary "sinf" Ast.Float (fun a -> a.(0) <- sin a.(0));
    unary "cosf" Ast.Float (fun a -> a.(0) <- cos a.(0));
    binary "powf" Ast.Float (fun a -> a.(0) <- a.(0) ** a.(1));
    binary "fminf" Ast.Float (fun a -> if not (a.(0) <= a.(1)) then a.(0) <- a.(1));
    binary "fmaxf" Ast.Float (fun a -> if not (a.(0) >= a.(1)) then a.(0) <- a.(1));
    binary "min" Ast.Int (fun a -> if not (a.(0) <= a.(1)) then a.(0) <- a.(1));
    binary "max" Ast.Int (fun a -> if not (a.(0) >= a.(1)) then a.(0) <- a.(1));
    unary "abs" Ast.Int (fun a -> a.(0) <- abs_float a.(0));
    unary "saturatef" Ast.Float (fun a -> a.(0) <- clamp01 a.(0));
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

let is_builtin name = Option.is_some (find name)
