(** Brute-force finish-placement oracle: exhaustive search over every
    well-formed (nested-or-disjoint, validity-passing) placement that
    resolves all dependence edges.  Exponential; used by the test suite to
    validate {!Dp_place.solve}'s optimality claim (paper Theorem 2). *)

open Repair

(** Upper bound on graph size accepted by {!solve}. *)
val max_vertices : int

(** Minimum completion time over all valid resolving placements, with a
    witness; [None] if no placement resolves the edges.
    @raise Invalid_argument beyond {!max_vertices} vertices. *)
val solve :
  ?valid:(i:int -> j:int -> bool) ->
  Depgraph.t ->
  (int * (int * int) list) option
