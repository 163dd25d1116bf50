type t = {
  const : int;
  c_tx : int;
  c_ty : int;
  c_bx : int;
  c_by : int;
  iters : (string * int) list;  (* sorted by name, no zero coefficients *)
}

type value = Affine of t | Unknown

let const n = { const = n; c_tx = 0; c_ty = 0; c_bx = 0; c_by = 0; iters = [] }

let iter name =
  { const = 0; c_tx = 0; c_ty = 0; c_bx = 0; c_by = 0; iters = [ (name, 1) ] }

let of_builtin b ~bdim_x ~bdim_y ~grid_x =
  let basis ~tx ~ty ~bx ~by =
    Some { const = 0; c_tx = tx; c_ty = ty; c_bx = bx; c_by = by; iters = [] }
  in
  match b with
  | Minicuda.Ast.Thread_idx_x -> basis ~tx:1 ~ty:0 ~bx:0 ~by:0
  | Minicuda.Ast.Thread_idx_y -> basis ~tx:0 ~ty:1 ~bx:0 ~by:0
  | Minicuda.Ast.Block_idx_x -> basis ~tx:0 ~ty:0 ~bx:1 ~by:0
  | Minicuda.Ast.Block_idx_y -> basis ~tx:0 ~ty:0 ~bx:0 ~by:1
  | Minicuda.Ast.Block_dim_x -> Some (const bdim_x)
  | Minicuda.Ast.Block_dim_y -> Some (const bdim_y)
  | Minicuda.Ast.Grid_dim_x -> Some (const grid_x)
  | Minicuda.Ast.Grid_dim_y -> None

let merge_iters f a b =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.filter_map (fun (n, c) -> let c' = f 0 c in if c' = 0 then None else Some (n, c')) rest
    | rest, [] -> List.filter_map (fun (n, c) -> let c' = f c 0 in if c' = 0 then None else Some (n, c')) rest
    | (na, ca) :: ta, (nb, cb) :: tb ->
      if na = nb then
        let c = f ca cb in
        if c = 0 then go ta tb else (na, c) :: go ta tb
      else if na < nb then
        let c = f ca 0 in
        if c = 0 then go ta b else (na, c) :: go ta b
      else
        let c = f 0 cb in
        if c = 0 then go a tb else (nb, c) :: go a tb
  in
  go a b

let add2 a b =
  {
    const = a.const + b.const;
    c_tx = a.c_tx + b.c_tx;
    c_ty = a.c_ty + b.c_ty;
    c_bx = a.c_bx + b.c_bx;
    c_by = a.c_by + b.c_by;
    iters = merge_iters ( + ) a.iters b.iters;
  }

let scale k a =
  if k = 0 then const 0
  else
    {
      const = k * a.const;
      c_tx = k * a.c_tx;
      c_ty = k * a.c_ty;
      c_bx = k * a.c_bx;
      c_by = k * a.c_by;
      iters = List.map (fun (n, c) -> (n, k * c)) a.iters;
    }

let is_constant a =
  a.c_tx = 0 && a.c_ty = 0 && a.c_bx = 0 && a.c_by = 0 && a.iters = []

let lift2 f a b =
  match (a, b) with Affine x, Affine y -> f x y | _ -> Unknown

let add = lift2 (fun x y -> Affine (add2 x y))
let sub = lift2 (fun x y -> Affine (add2 x (scale (-1) y)))

let neg = function Affine x -> Affine (scale (-1) x) | Unknown -> Unknown

let mul =
  lift2 (fun x y ->
      if is_constant x then Affine (scale x.const y)
      else if is_constant y then Affine (scale y.const x)
      else Unknown)

let div_exact v k =
  match v with
  | Unknown -> Unknown
  | Affine a ->
    if k = 0 then Unknown
    else
      let divides n = n mod k = 0 in
      if
        divides a.const && divides a.c_tx && divides a.c_ty && divides a.c_bx
        && divides a.c_by
        && List.for_all (fun (_, c) -> divides c) a.iters
      then
        Affine
          {
            const = a.const / k;
            c_tx = a.c_tx / k;
            c_ty = a.c_ty / k;
            c_bx = a.c_bx / k;
            c_by = a.c_by / k;
            iters = List.map (fun (n, c) -> (n, c / k)) a.iters;
          }
      else Unknown

let coeff_of_iter a name =
  match List.assoc_opt name a.iters with Some c -> c | None -> 0

let drop_iter a name =
  { a with iters = List.filter (fun (n, _) -> n <> name) a.iters }

let eval_lane a ~bdim_x ~lane ~base_linear_tid =
  let lin = base_linear_tid + lane in
  let tx = lin mod bdim_x and ty = lin / bdim_x in
  a.const + (a.c_tx * tx) + (a.c_ty * ty)

let equal a b =
  a.const = b.const && a.c_tx = b.c_tx && a.c_ty = b.c_ty && a.c_bx = b.c_bx
  && a.c_by = b.c_by && a.iters = b.iters

let equal_value a b =
  match (a, b) with
  | Affine x, Affine y -> equal x y
  | Unknown, Unknown -> true
  | _ -> false

let to_string a =
  let term coeff name acc =
    if coeff = 0 then acc
    else
      let t =
        if coeff = 1 then name
        else if coeff = -1 then "-" ^ name
        else Printf.sprintf "%d*%s" coeff name
      in
      t :: acc
  in
  let terms =
    term a.c_tx "tid.x"
      (term a.c_ty "tid.y"
         (term a.c_bx "bid.x"
            (term a.c_by "bid.y"
               (List.fold_right (fun (n, c) acc -> term c n acc) a.iters []))))
  in
  let terms = if a.const <> 0 || terms = [] then terms @ [ string_of_int a.const ] else terms in
  String.concat " + " terms

let pp fmt a = Format.pp_print_string fmt (to_string a)
