(** Scope-validity of candidate finish placements (paper Algorithm 2 and
    the Figure 5 constraint), and the static insertion points they map
    to. *)

type insertion = {
  parent : Sdpst.Node.t;  (** node under which the finish node is spliced *)
  child_lo : int;  (** first adopted child index under [parent] *)
  child_hi : int;  (** last adopted child index *)
  placement : Mhj.Transform.placement;  (** static program location *)
}

(** The S-DPST insertion realizing a finish over dependence-graph vertices
    [i..j] (0-based, inclusive), or [None] if no scope-valid insertion
    exists.  Returns the {e highest} valid level (the paper's §5.2 rule):
    candidates climb from [lca(first i, last j)] through enclosing scope
    nodes until the finish would capture vertex [i-1] or [j+1].

    @param wrap_ok declaration-visibility constraint, normally
      {!Mhj.Scopecheck.wrap_ok}. *)
val insertion_for :
  ?wrap_ok:(bid:int -> lo:int -> hi:int -> bool) ->
  Depgraph.t ->
  i:int ->
  j:int ->
  insertion option

(** Paper Algorithm 2, literally: LCA-depth comparison with the outside
    neighbours.  Retained for cross-validation; [insertion_for] refines it
    with statement-boundary and declaration-visibility constraints. *)
val valid_by_depths : Depgraph.t -> i:int -> j:int -> bool

(** Validity predicate over one dependence graph, as consumed by
    {!Dp_place.solve}: [valid ~i ~j] iff {!insertion_for} finds an
    insertion for vertices [i..j].  Each interval is computed once, into
    a dense n×n byte table allocated up front. *)
val make_checker :
  ?wrap_ok:(bid:int -> lo:int -> hi:int -> bool) ->
  Depgraph.t ->
  i:int ->
  j:int ->
  bool
