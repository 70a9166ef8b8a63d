(** Serial elision: erase all parallel constructs.

    The paper's correctness criterion (Problem 1, condition 4) is that the
    repaired program must have the same semantics as its serial elision —
    the program with [async] and [finish] keywords deleted.  This module
    computes that elision; [test/test_driver.ml] checks observational
    equivalence between repaired programs and their elisions. *)

open Ast

let rec elide_stmt (st : stmt) : stmt =
  match st.s with
  | Async body | Finish body | Isolated body -> { st with s = (elide_stmt body).s }
  | _ -> map_sub elide_stmt st

(** [elide p] is [p] with every [async] and [finish] wrapper removed (their
    bodies are kept in place). *)
let elide (p : program) : program = map_funcs elide_stmt p
