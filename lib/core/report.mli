(** Human-readable repair reports: insertion points as source positions,
    per-iteration statistics, and — as the paper's §9 "context-sensitive
    finishes" extension — the number of dynamic calling contexts that
    demanded each static placement. *)

(** Source span of a placement, if the program carries locations. *)
val placement_span :
  Mhj.Scopecheck.t ->
  Mhj.Transform.placement ->
  (Mhj.Loc.t * Mhj.Loc.t) option

(** How many dynamic NS-LCA instances demanded each static placement of an
    iteration, counted against the inserted placement that absorbed each
    demand ({!Static_place.absorbing}).  A placement demanded by only some
    contexts is a candidate for a context-sensitive (conditionally
    executed) finish. *)
val contexts_per_placement :
  Mhj.Scopecheck.t -> Driver.iteration -> (Mhj.Transform.placement * int) list

(** Render the report for a repair of [original]. *)
val pp : (Mhj.Ast.program * Driver.report) Fmt.t

val to_string : Mhj.Ast.program -> Driver.report -> string

(** Render a placement as a source position ("line N" / "lines N-M"),
    falling back to block/statement indices when locations are missing. *)
val pp_placement_loc : Mhj.Scopecheck.t -> Mhj.Transform.placement Fmt.t
