(** Front door for the Mini-HJ front end. *)

(** Parse, type-check and normalize a compilation unit.  Every later pass
    (interpreter, repair) expects programs produced here.
    @raise Lexer.Error on lexical errors
    @raise Parser.Error on syntax errors
    @raise Typecheck.Error on type errors *)
val compile : ?require_main:bool -> string -> Ast.program
