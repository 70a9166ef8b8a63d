(** Static finish placement (paper §6): combine the placements demanded by
    all dynamic NS-LCA instances into one consistent set of AST rewrites.

    Placements demanded at one static location by different dynamic
    contexts are merged by range union (a static finish must satisfy its
    most demanding instance); nested placements demanded together by a
    single context (an inner and outer finish of one FinishSet) are
    preserved.  Wraps of a lone block statement are canonicalized to the
    block's contents first, so demands produced at different climb levels
    meet in one block. *)

type merged = {
  placements : Mhj.Transform.placement list;  (** final, non-crossing *)
  n_demanded : int;  (** distinct placements demanded before merging *)
  n_merged : int;  (** union steps performed *)
}

(** Merge raw demands, each tagged with the dynamic context (NS-LCA id)
    that produced it. *)
val merge :
  scopes:Mhj.Scopecheck.t ->
  (int * Mhj.Transform.placement) list ->
  merged

(** The placement of [merged] that a raw demand became: the smallest one
    holding the demand's canonical form. *)
val absorbing :
  scopes:Mhj.Scopecheck.t ->
  merged ->
  Mhj.Transform.placement ->
  Mhj.Transform.placement

(** Apply the merged placements to the program. *)
val apply : Mhj.Ast.program -> merged -> Mhj.Ast.program
