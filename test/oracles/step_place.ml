(* See step_place.mli. *)

open Repair
module P = Espbags.Race.Pairs

type group = {
  lca : Sdpst.Node.t;
  n_vertices : int;
  n_edges : int;
  solved : (int * Valid.insertion list) option;
}

let place ~program pairs =
  let tree = P.tree pairs in
  let span, _ = Sdpst.Analysis.span_memo tree in
  let scopes = Mhj.Scopecheck.build program in
  let wrap_ok = Mhj.Scopecheck.wrap_ok scopes in
  let n = P.length pairs in
  let src_child = Tdrutil.Ivec.make ~len:n (-1) in
  let sink_child = Tdrutil.Ivec.make ~len:n (-1) in
  let members = Hashtbl.create 16 in
  for k = 0 to n - 1 do
    let src = P.src_id pairs k and sink = P.sink_id pairs k in
    let lca = Sdpst.Lca.ns_lca tree src sink in
    let child = Sdpst.Lca.nonscope_child_ancestor tree ~anc:lca in
    Tdrutil.Ivec.set src_child k (child src);
    Tdrutil.Ivec.set sink_child k (child sink);
    let ks =
      match Hashtbl.find_opt members lca with
      | Some ks -> ks
      | None ->
          let ks = Tdrutil.Ivec.create () in
          Hashtbl.add members lca ks;
          ks
    in
    Tdrutil.Ivec.push ks k
  done;
  let lcas =
    List.sort Int.compare (Hashtbl.fold (fun l _ acc -> l :: acc) members [])
  in
  let groups =
    List.map
      (fun lca ->
        let g =
          Depgraph.of_pairs ~span
            { tree; nslca = lca; pairs = Hashtbl.find members lca; src_child;
              sink_child }
        in
        let solved =
          match Dp_place.solve ~valid:(Valid.make_checker ~wrap_ok g) g with
          | { cost; finishes } ->
              let insertion (i, j) =
                Option.get (Valid.insertion_for ~wrap_ok g ~i ~j)
              in
              Some (cost, List.map insertion finishes)
          | exception Dp_place.Unsatisfiable _ -> None
        in
        {
          lca;
          n_vertices = Depgraph.n_vertices g;
          n_edges = Depgraph.n_edges g;
          solved;
        })
      lcas
  in
  let merged =
    if List.for_all (fun g -> g.solved <> None) groups then
      Some
        (Static_place.merge ~scopes
           (List.concat_map
              (fun g ->
                List.map
                  (fun (i : Valid.insertion) -> (g.lca, i.placement))
                  (snd (Option.get g.solved)))
              groups))
    else None
  in
  (groups, merged)
