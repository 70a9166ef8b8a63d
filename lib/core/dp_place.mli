(** Dynamic finish placement (paper §5.2, Algorithms 1 and 3).

    Computes the set of finish blocks — vertex intervals of a dependence
    graph — that resolves every dependence edge while minimizing the
    block's completion time under the ideal parallel execution model,
    restricted to scope-valid placements. *)

type outcome = {
  cost : int;  (** optimal completion time of the whole vertex block *)
  finishes : (int * int) list;
      (** the FinishSet: 0-based inclusive vertex intervals to wrap,
          outermost first; pairwise nested or disjoint *)
}

exception Unsatisfiable of int * int
(** No scope-valid placement can resolve the dependences of this interval. *)

(** Solve the placement problem.

    @param valid scope-validity of wrapping vertices [i..j] in a finish
      (from {!Valid.make_checker}); defaults to always-valid, the pure
      published Algorithm 1.
    @raise Unsatisfiable when the dependences cannot be resolved.
    @raise Rt.Watchdog.Timeout when the calling domain's deadline passes
      (polled once per interval length). *)
val solve : ?valid:(i:int -> j:int -> bool) -> Depgraph.t -> outcome

(** Completion time of the vertex block under an explicit placement (the
    cost function the DP minimizes), evaluated directly.  Intervals must
    be pairwise nested or disjoint. *)
val eval_placement : Depgraph.t -> (int * int) list -> int

(** Does the placement resolve every dependence edge?  Edge [(x, y)] needs
    an interval [(s, e)] with [s <= x <= e < y]. *)
val resolves_all : Depgraph.t -> (int * int) list -> bool
