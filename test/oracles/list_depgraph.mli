(** Dependence graphs built straight from race lists, for tests and
    benches that write their races by hand or take them from a
    detector's record list.  Production placement builds graphs from
    lifted pair sets ({!Repair.Depgraph.of_pairs} via the driver). *)

open Repair

(** {!Depgraph.of_pairs} on the distinct step pairs of [races], taken in
    order of sink id (a stable sort: races in report order are kept as
    they are), each endpoint lifted to the non-scope child of [lca]
    containing it ({!Sdpst.Lca.nonscope_child_ancestor}); [races] are
    races of the given tree.
    @raise Invalid_argument as {!Depgraph.of_pairs} *)
val build :
  ?coalesce:bool ->
  span:(Sdpst.Node.t -> int) ->
  Sdpst.Node.tree ->
  Sdpst.Node.t ->
  Espbags.Race.t list ->
  Depgraph.t
