(* See list_depgraph.mli. *)

let build ?coalesce ~span tree lca (races : Espbags.Race.t list) =
  let by_sink (a : Espbags.Race.t) (b : Espbags.Race.t) =
    Int.compare a.sink b.sink
  in
  let module P = Espbags.Race.Pairs in
  let pairs = P.of_list (List.stable_sort by_sink races) in
  let child n = Sdpst.Lca.nonscope_child_ancestor tree ~anc:lca n in
  let lifted pick =
    Tdrutil.Ivec.of_list
      (List.init (P.length pairs) (fun k -> child (pick pairs k)))
  in
  Repair.Depgraph.of_pairs ?coalesce ~span
    {
      tree;
      nslca = lca;
      pairs = Tdrutil.Ivec.of_list (List.init (P.length pairs) Fun.id);
      src_child = lifted P.src_id;
      sink_child = lifted P.sink_id;
    }
