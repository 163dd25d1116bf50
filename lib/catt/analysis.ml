module Gaccess = Staticmodel.Gaccess

(* same record as the sanitizer's, re-exported so analysis results and
   sanitizer calls share geometry values without conversion *)
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
}

type loop_report = {
  loop_id : int;
  loop_var : string;
  accesses : access list;
  has_barrier : bool;
  gaccesses : Gaccess.gaccess list;
}

let access_of (g : Gaccess.gaccess) =
  {
    array = g.Gaccess.garray;
    index = g.Gaccess.gindex;
    is_load = g.Gaccess.gload;
    is_store = g.Gaccess.gstore;
    innermost_iter = g.Gaccess.ginnermost;
  }

let analyze_kernel (k : Minicuda.Ast.kernel) geo =
  List.map
    (fun (li : Gaccess.loop_info) ->
      {
        loop_id = li.Gaccess.gloop_id;
        loop_var = li.Gaccess.gloop_var;
        accesses = List.map access_of li.Gaccess.gaccesses;
        has_barrier = li.Gaccess.gbarrier;
        gaccesses = li.Gaccess.gaccesses;
      })
    (Gaccess.analyze k geo).Gaccess.loops
