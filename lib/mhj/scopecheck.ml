(** Declaration-visibility constraint on finish insertion.

    Wrapping statements [lo..hi] of a block in [finish { ... }] moves them
    into a nested lexical scope, so any [var]/[val] declared in the range
    becomes invisible to the statements after [hi].  The paper's scope
    nodes keep a finish {e within} one scope but do not capture this
    visibility constraint, which matters as soon as the repaired program is
    re-emitted as source; {!wrap_ok} rejects such ranges so that the DP
    placement chooses a different (scope-realizable) partition. *)

open Ast

type t = { blocks : (int, stmt array) Hashtbl.t }

let build (p : program) : t =
  let blocks = Hashtbl.create 64 in
  let on_block b = Hashtbl.replace blocks b.bid (Array.of_list b.stmts) in
  let rec on_stmt st =
    (match st.s with Block b -> on_block b | _ -> ());
    iter_sub on_stmt st
  in
  List.iter (fun f -> on_block f.body; List.iter on_stmt f.body.stmts) p.funcs;
  { blocks }

(* All identifiers referenced by an expression. *)
let rec expr_names acc (e : expr) =
  match e.e with
  | Var x -> x :: acc
  | _ -> List.fold_left expr_names acc (sub_exprs e)

(* All identifiers referenced anywhere in a statement (conservative: no
   shadowing analysis — a shadowed reuse of the name also rejects). *)
let rec stmt_names acc (st : stmt) =
  let acc = match st.s with Assign (x, _, _) -> x :: acc | _ -> acc in
  let acc = List.fold_left expr_names acc (stmt_exprs st) in
  let sub = ref acc in
  iter_sub (fun s -> sub := stmt_names !sub s) st;
  !sub

(** [wrap_ok t ~bid ~lo ~hi] — may statements [lo..hi] of block [bid] be
    moved into a nested block without breaking a later reference to a
    declaration made inside the range? *)
let wrap_ok (t : t) ~bid ~lo ~hi : bool =
  match Hashtbl.find_opt t.blocks bid with
  | None -> false
  | Some stmts ->
      let n = Array.length stmts in
      if lo < 0 || hi >= n || lo > hi then false
      else begin
        let declared = ref [] in
        for k = lo to hi do
          match stmts.(k).s with
          | Decl (_, x, _, _) -> declared := x :: !declared
          | _ -> ()
        done;
        !declared = []
        ||
        let used_after = ref [] in
        for k = hi + 1 to n - 1 do
          used_after := stmt_names !used_after stmts.(k)
        done;
        not (List.exists (fun x -> List.mem x !used_after) !declared)
      end
