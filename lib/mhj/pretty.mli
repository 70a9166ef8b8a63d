(** Pretty-printer for Mini-HJ.  Output is valid Mini-HJ that re-parses to
    a structurally identical program; the repair driver uses it to emit
    the repaired source. *)

val pp_expr : Ast.expr Fmt.t

val pp_program : Ast.program Fmt.t

val program_to_string : Ast.program -> string

val expr_to_string : Ast.expr -> string

