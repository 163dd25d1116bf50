type group = Cs | Ci

type kernel_launch = {
  kernel_name : string;
  grid : int * int;
  block : int * int;
  args : Gpusim.Gpu.arg list;
}

type t = {
  name : string;
  group : group;
  description : string;
  source : string;
  setup : Gpusim.Gpu.device -> Gpu_util.Rng.t -> unit;
  launches : kernel_launch list;
  verify : Gpusim.Gpu.device -> (unit, string) result;
}

let parse t = Minicuda.Parser.parse_program t.source

let kernels t =
  List.map
    (fun (k : Minicuda.Ast.kernel) -> (k.Minicuda.Ast.kernel_name, k))
    (parse t).Minicuda.Ast.kernels

let find_kernel t name =
  match List.assoc_opt name (kernels t) with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "workload %s has no kernel %s" t.name name)

let geometry_of l =
  let gx, gy = l.grid and bx, by = l.block in
  { Catt.Analysis.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }

let expect_close ?(eps = 1e-4) ~what expected actual =
  if Array.length expected <> Array.length actual then
    Error
      (Printf.sprintf "%s: length mismatch (%d vs %d)" what
         (Array.length expected) (Array.length actual))
  else begin
    let bad = ref None in
    Array.iteri
      (fun i e ->
        if !bad = None then begin
          let a = actual.(i) in
          let scale = max 1. (abs_float e) in
          if abs_float (e -. a) > eps *. scale then bad := Some (i, e, a)
        end)
      expected;
    match !bad with
    | None -> Ok ()
    | Some (i, e, a) ->
      Error (Printf.sprintf "%s[%d]: expected %g, got %g" what i e a)
  end

let upload_random dev rng name len =
  let host = Array.make len 0. in
  for i = 0 to len - 1 do
    host.(i) <- Gpu_util.Rng.float rng 1.
  done;
  Gpusim.Gpu.upload dev name host;
  host
