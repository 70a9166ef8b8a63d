(** Placement from step pairs as they stand, with no spawn-free
    projection: the oracle {!Repair.Driver.place_pairs} is held equal
    to.  Each pair is lifted with the per-pair ancestor queries
    ({!Sdpst.Lca.ns_lca}, {!Sdpst.Lca.nonscope_child_ancestor}), grouped
    by NS-LCA, and each group's coalesced dependence graph is solved by
    the exact DP under the program's scope-validity checker.  The
    driver's per-edge fallback is not reproduced: a group the DP cannot
    satisfy comes back unsolved. *)

type group = {
  lca : Sdpst.Node.t;
  n_vertices : int;
  n_edges : int;
  solved : (int * Repair.Valid.insertion list) option;
      (** the DP cost and the insertions of its finishes, outermost
          first; [None] when the DP is unsatisfiable *)
}

(** The groups in ascending NS-LCA id order, and the merged placement
    when every group is solved. *)
val place :
  program:Mhj.Ast.program ->
  Espbags.Race.Pairs.t ->
  group list * Repair.Static_place.merged option
