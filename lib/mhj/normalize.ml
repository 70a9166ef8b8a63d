(** Normalization: give every statement a home block.

    The static finish-placement pass identifies insertion points as
    (block id, statement range) pairs, so every [async], [finish], branch
    and loop body must be a block.  This pass wraps non-block bodies in
    fresh single-statement blocks.  It is run by {!Front.compile}; all
    later passes may assume normalized form ({!is_normalized}). *)

open Ast

let rec norm_body (st : stmt) : stmt =
  let st = norm_stmt st in
  match st.s with
  | Block _ -> st
  | _ -> mk_stmt ~loc:st.sloc (Block (mk_block [ st ]))

and norm_stmt (st : stmt) : stmt =
  match st.s with
  | Block b -> { st with s = Block { b with stmts = List.map norm_stmt b.stmts } }
  | _ -> map_sub norm_body st

let normalize (p : program) : program = map_funcs norm_stmt p

let rec stmt_normalized (st : stmt) : bool =
  let is_block s = match s.s with Block _ -> true | _ -> false in
  match st.s with
  | Decl _ | Assign _ | Return _ | Expr _ -> true
  | If (_, a, b) ->
      is_block a && stmt_normalized a
      && Option.fold ~none:true ~some:(fun b -> is_block b && stmt_normalized b) b
  | While (_, b) | For (_, _, _, _, b) | Async b | Finish b | Isolated b ->
      is_block b && stmt_normalized b
  | Block b -> List.for_all stmt_normalized b.stmts

(** Whether every compound-statement body in [p] is a block. *)
let is_normalized (p : program) : bool =
  List.for_all (fun f -> List.for_all stmt_normalized f.body.stmts) p.funcs
