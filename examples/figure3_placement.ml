(* The paper's Figures 3 and 4: six asyncs A..F with execution times
   500/10/10/400/600/500 and dependences B->D, A->F, D->F.  Figure 4 lists
   four possible finish placements and their critical path lengths; the
   dynamic-programming placement algorithm searches all of them (and more)
   and returns the optimum.

   Run with: dune exec examples/figure3_placement.exe *)

let mk_graph () =
  let times = [| 500; 10; 10; 400; 600; 500 |] in
  let tree = Sdpst.Node.create_tree ~main_bid:0 in
  let root = Sdpst.Node.root in
  let steps =
    Array.mapi
      (fun i t ->
        let a =
          Sdpst.Node.new_child tree ~parent:root ~kind:Sdpst.Node.Async
            ~origin_bid:0 ~origin_idx:i ()
        in
        let s =
          Sdpst.Node.new_child tree ~parent:a ~kind:Sdpst.Node.Step
            ~origin_bid:(100 + i) ~origin_idx:0 ()
        in
        Sdpst.Node.charge tree s t ~idx:(-1);
        s)
      times
  in
  let edge (i, j) =
    Espbags.Race.make ~tree ~src:steps.(i) ~sink:steps.(j)
      ~addr:(Rt.Addr.Global "dep") ~kind:Espbags.Race.Write_read
  in
  let races = List.map edge [ (1, 3); (0, 5); (3, 5) ] in
  let span, _ = Sdpst.Analysis.span_memo tree in
  Oracles.List_depgraph.build ~coalesce:false ~span tree root races

let name_of i = String.make 1 (Char.chr (Char.code 'A' + i))

let pp_placement ppf intervals =
  let opens = List.map fst intervals and closes = List.map snd intervals in
  for v = 0 to 5 do
    List.iter (fun s -> if s = v then Fmt.string ppf "( ") opens;
    Fmt.pf ppf "%s " (name_of v);
    List.iter (fun e -> if e = v then Fmt.string ppf ") ") closes
  done

let () =
  let g = mk_graph () in
  Fmt.pr "dependence graph (Figure 3): tasks A..F, times 500/10/10/400/600/500@.";
  Fmt.pr "dependences: B->D, A->F, D->F@.@.";
  Fmt.pr "Figure 4's candidate placements, re-evaluated by our cost model:@.";
  List.iter
    (fun intervals ->
      Fmt.pr "  %-28s CPL = %d@."
        (Fmt.str "%a" pp_placement intervals)
        (Repair.Dp_place.eval_placement g intervals))
    [
      [ (0, 0); (1, 1); (3, 3) ];
      [ (0, 1); (3, 3) ];
      [ (0, 2); (3, 3) ];
      [ (0, 4); (1, 1) ];
    ];
  let out = Repair.Dp_place.solve g in
  Fmt.pr "@.Algorithm 1's optimum:@.";
  Fmt.pr "  %-28s CPL = %d@."
    (Fmt.str "%a" pp_placement out.finishes)
    out.cost;
  Fmt.pr
    "@.(The DP beats all four hand-picked placements of Figure 4 — it \
     overlaps E@.with the finish that joins A..D before F starts.)@."
