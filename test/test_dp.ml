(* Tests for the dynamic-programming finish placement (paper Algorithms
   1-3): the Figure 3/4 worked example, hand-checked small instances, and
   a qcheck comparison against the brute-force optimality oracle
   (Theorem 2). *)

(* Build a synthetic dependence graph without an execution: a chain of
   fake S-DPST nodes under one NS-LCA. *)
let mk_graph ~asyncs ~times ~edges : Repair.Depgraph.t =
  let n = Array.length times in
  assert (Array.length asyncs = n);
  let tree = Sdpst.Node.create_tree ~main_bid:0 in
  let root = Sdpst.Node.root in
  let nodes =
    Array.init n (fun i ->
        let kind =
          if asyncs.(i) then Sdpst.Node.Async else Sdpst.Node.Step
        in
        let c =
          Sdpst.Node.new_child tree ~parent:root ~kind ~origin_bid:0
            ~origin_idx:i ()
        in
        (* interior async nodes get a step child carrying the time *)
        if asyncs.(i) then begin
          let s =
            Sdpst.Node.new_child tree ~parent:c ~kind:Sdpst.Node.Step
              ~origin_bid:(1000 + i) ~origin_idx:0 ()
          in
          Sdpst.Node.charge tree s times.(i) ~idx:(-1)
        end
        else Sdpst.Node.charge tree c times.(i) ~idx:(-1);
        c)
  in
  (* attach race edges between the steps *)
  let step_of i =
    let c = nodes.(i) in
    if Sdpst.Node.is_step tree c then c else Sdpst.Node.first_child tree c
  in
  let races =
    List.map
      (fun (i, j) ->
        Espbags.Race.make ~tree ~src:(step_of i) ~sink:(step_of j)
          ~addr:(Rt.Addr.Global "x") ~kind:Espbags.Race.Write_read)
      edges
  in
  let span, _ = Sdpst.Analysis.span_memo tree in
  Oracles.List_depgraph.build ~coalesce:false ~span tree root races

(* ------------------------------------------------------------------ *)
(* Figure 3/4: the paper's worked example                              *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  (* A B C D E F with times 500/10/10/400/600/500, deps B->D, A->F, D->F *)
  mk_graph
    ~asyncs:[| true; true; true; true; true; true |]
    ~times:[| 500; 10; 10; 400; 600; 500 |]
    ~edges:[ (1, 3); (0, 5); (3, 5) ]

let test_figure4_placement_costs () =
  let g = figure3 () in
  let eval = Repair.Dp_place.eval_placement g in
  (* Figure 4, 0-based intervals; parentheses in the paper are finishes *)
  Alcotest.(check int) "( A ) ( B ) C ( D ) E F" 1510
    (eval [ (0, 0); (1, 1); (3, 3) ]);
  Alcotest.(check int) "( A B ) C ( D ) E F" 1500
    (eval [ (0, 1); (3, 3) ]);
  Alcotest.(check int) "( A B C ) ( D ) E F" 1500
    (eval [ (0, 2); (3, 3) ]);
  Alcotest.(check int) "( A ( B ) C D E ) F" 1110
    (eval [ (0, 4); (1, 1) ])

let test_figure3_dp_optimum () =
  let g = figure3 () in
  let out = Repair.Dp_place.solve g in
  (* The DP finds a placement better than all four listed in Figure 4:
     finish (A (B) C D) E F with completion 1100. *)
  Alcotest.(check int) "optimal cost" 1100 out.cost;
  Alcotest.(check bool)
    "resolves all edges" true
    (Repair.Dp_place.resolves_all g out.finishes);
  Alcotest.(check int) "eval matches cost" out.cost
    (Repair.Dp_place.eval_placement g out.finishes);
  (* and the brute-force oracle agrees *)
  match Oracles.Brute.solve g with
  | Some (best, _) -> Alcotest.(check int) "oracle agrees" best out.cost
  | None -> Alcotest.fail "oracle found no placement"

(* ------------------------------------------------------------------ *)
(* Small hand-checked cases                                            *)
(* ------------------------------------------------------------------ *)

let test_no_edges () =
  let g =
    mk_graph ~asyncs:[| true; true |] ~times:[| 5; 9 |] ~edges:[]
  in
  let out = Repair.Dp_place.solve g in
  Alcotest.(check int) "cost is max span" 9 out.cost;
  Alcotest.(check (list (pair int int))) "no finishes" [] out.finishes

let test_single_edge () =
  let g =
    mk_graph ~asyncs:[| true; true |] ~times:[| 5; 9 |] ~edges:[ (0, 1) ]
  in
  let out = Repair.Dp_place.solve g in
  Alcotest.(check int) "serialized" 14 out.cost;
  Alcotest.(check (list (pair int int))) "finish around first" [ (0, 0) ]
    out.finishes

let test_step_sink () =
  (* async writes, step reads: finish around the async *)
  let g =
    mk_graph ~asyncs:[| true; false |] ~times:[| 7; 3 |] ~edges:[ (0, 1) ]
  in
  let out = Repair.Dp_place.solve g in
  Alcotest.(check int) "cost" 10 out.cost;
  Alcotest.(check (list (pair int int))) "finish" [ (0, 0) ] out.finishes

let test_unsatisfiable () =
  let g =
    mk_graph ~asyncs:[| true; true |] ~times:[| 5; 9 |] ~edges:[ (0, 1) ]
  in
  match Repair.Dp_place.solve ~valid:(fun ~i:_ ~j:_ -> false) g with
  | exception Repair.Dp_place.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "expected Unsatisfiable"

let test_validity_restricts () =
  (* forbid the tight (0,0) wrap; the DP must find a different cover *)
  let g =
    mk_graph
      ~asyncs:[| true; true; true |]
      ~times:[| 5; 9; 4 |]
      ~edges:[ (0, 2) ]
  in
  let valid ~i ~j = not (i = 0 && j = 0) in
  let out = Repair.Dp_place.solve ~valid g in
  Alcotest.(check bool)
    "resolves via (0,1)" true
    (Repair.Dp_place.resolves_all g out.finishes);
  List.iter
    (fun (s, e) -> if s = 0 && e = 0 then Alcotest.fail "used invalid wrap")
    out.finishes

let test_eval_overlap_rejected () =
  let g =
    mk_graph
      ~asyncs:[| true; true; true; true |]
      ~times:[| 5; 9; 4; 2 |]
      ~edges:[]
  in
  (* Nested and disjoint inputs are fine... *)
  ignore (Repair.Dp_place.eval_placement g [ (0, 3); (1, 2); (1, 1) ]);
  ignore (Repair.Dp_place.eval_placement g [ (0, 1); (2, 3) ]);
  (* ...but a crossing pair must be rejected, not silently mis-scored. *)
  List.iter
    (fun ivs ->
      match Repair.Dp_place.eval_placement g ivs with
      | exception Invalid_argument _ -> ()
      | cost ->
          Alcotest.failf "overlapping intervals scored as %d instead of \
                          raising" cost)
    [ [ (0, 2); (1, 3) ]; [ (0, 1); (1, 2) ]; [ (1, 3); (0, 1) ] ]

(* ------------------------------------------------------------------ *)
(* Oracle comparison (Theorem 2)                                       *)
(* ------------------------------------------------------------------ *)

let graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 6) (fun n ->
        let* asyncs = array_size (return n) bool in
        let* times = array_size (return n) (int_range 1 50) in
        let* edges =
          list_size (int_range 0 5)
            (let* i = int_range 0 (n - 2) in
             let* j = int_range (i + 1) (n - 1) in
             return (i, j))
        in
        return (asyncs, times, List.sort_uniq compare edges)))

let arbitrary_graph =
  QCheck.make graph_gen ~print:(fun (asyncs, times, edges) ->
      Fmt.str "asyncs=%a times=%a edges=%a"
        Fmt.(Dump.array bool)
        asyncs
        Fmt.(Dump.array int)
        times
        Fmt.(Dump.list (Dump.pair int int))
        edges)

let dp_matches_oracle =
  QCheck.Test.make ~name:"DP optimum equals brute-force optimum (Theorem 2)"
    ~count:300 arbitrary_graph (fun (asyncs, times, edges) ->
      let g = mk_graph ~asyncs ~times ~edges in
      let dp = Repair.Dp_place.solve g in
      match Oracles.Brute.solve g with
      | None -> false
      | Some (best, _witness) ->
          Repair.Dp_place.resolves_all g dp.finishes
          && Repair.Dp_place.eval_placement g dp.finishes = dp.cost
          && dp.cost = best)

let dp_resolves_under_validity =
  QCheck.Test.make
    ~name:"DP output is valid and resolving under random validity" ~count:200
    QCheck.(pair arbitrary_graph (int_range 0 1000))
    (fun ((asyncs, times, edges), vseed) ->
      let g = mk_graph ~asyncs ~times ~edges in
      let rng = Tdrutil.Prng.create ~seed:vseed in
      (* a random monotone validity: each (i,j) valid with prob 3/4;
         memoized for determinism within the run *)
      let memo = Hashtbl.create 16 in
      let valid ~i ~j =
        match Hashtbl.find_opt memo (i, j) with
        | Some b -> b
        | None ->
            let b = Tdrutil.Prng.int rng 4 < 3 in
            Hashtbl.add memo (i, j) b;
            b
      in
      match Repair.Dp_place.solve ~valid g with
      | exception Repair.Dp_place.Unsatisfiable _ -> true
      | out ->
          Repair.Dp_place.resolves_all g out.finishes
          && List.for_all (fun (s, e) -> valid ~i:s ~j:e) out.finishes)

let () =
  Alcotest.run "dp_place"
    [
      ( "figure3",
        [
          Alcotest.test_case "Figure 4 placement costs" `Quick
            test_figure4_placement_costs;
          Alcotest.test_case "DP optimum (beats Figure 4)" `Quick
            test_figure3_dp_optimum;
        ] );
      ( "small",
        [
          Alcotest.test_case "no edges" `Quick test_no_edges;
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "step sink" `Quick test_step_sink;
          Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable;
          Alcotest.test_case "validity restricts" `Quick
            test_validity_restricts;
          Alcotest.test_case "eval rejects overlapping intervals" `Quick
            test_eval_overlap_rejected;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest dp_matches_oracle;
          QCheck_alcotest.to_alcotest dp_resolves_under_validity;
        ] );
    ]
