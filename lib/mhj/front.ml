(** Convenience front door: parse + type-check in one call. *)

(** [compile src] parses and type-checks a Mini-HJ compilation unit.
    @raise Lexer.Error | Parser.Error | Typecheck.Error with a located
    message on ill-formed input. *)
let compile ?(require_main = true) (src : string) : Ast.program =
  let p = Obs.Trace.with_span "parse" (fun () -> Parser.parse_program src) in
  Obs.Trace.with_span "typecheck" (fun () ->
      Typecheck.check_program ~require_main p);
  Obs.Trace.with_span "normalize" (fun () -> Normalize.normalize p)
