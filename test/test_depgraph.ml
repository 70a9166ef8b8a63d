(* Tests for dependence-graph construction (paper §5.1, Figures 10/11)
   including the vertex-coalescing optimization. *)

let build_graphs ?coalesce src =
  let prog = Mhj.Front.compile src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let races =
    Espbags.Race.dedupe_by_steps (Espbags.Detector.races det)
  in
  let tree = res.Rt.Interp.tree in
  let span, _ = Sdpst.Analysis.span_memo tree in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : Espbags.Race.t) ->
      let lca = Sdpst.Lca.ns_lca tree r.src r.sink in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl lca) in
      Hashtbl.replace tbl lca (r :: cur))
    races;
  Hashtbl.fold
    (fun lca rs acc ->
      Oracles.List_depgraph.build ?coalesce ~span tree lca (List.rev rs) :: acc)
    tbl []
  |> List.sort (fun a b ->
         Int.compare a.Repair.Depgraph.lca b.Repair.Depgraph.lca)

(* The paper's fib example at n = 3: the dependence graph of the subtree
   rooted at Async1 (Figure 10) has 4 non-scope children — Step,
   Async1', Async2', Step — and edges from both asyncs to the final
   combining step (Figure 11). *)
let fib3 =
  {|
def fib(ret: int[], reti: int, n: int) {
  if (n < 2) { ret[reti] = n; return; }
  val x: int[] = new int[1];
  val y: int[] = new int[1];
  async fib(x, 0, n - 1);
  async fib(y, 0, n - 2);
  ret[reti] = x[0] + y[0];
}
def main() {
  val r: int[] = new int[1];
  async fib(r, 0, 3);
}
|}

let test_fib_figure11 () =
  let graphs = build_graphs ~coalesce:false fib3 in
  (* groups: root (r[0] never read in main -> actually no race at root since
     main never reads r), Async0 (combining step of fib(3)), Async1 of
     fib(3) = fib(2)'s combining step *)
  let g =
    List.find
      (fun (g : Repair.Depgraph.t) ->
        Sdpst.Node.is_async g.tree g.lca
        && Repair.Depgraph.n_edges g = 2)
      graphs
  in
  let kinds =
    Array.to_list
      (Array.map
         (fun n -> Sdpst.Node.kind_name (Sdpst.Node.kind g.tree n))
         g.Repair.Depgraph.first)
  in
  (* async body: arg-evaluation step, then (through the call scope) the
     paper's four children of Figure 10 *)
  Alcotest.(check (list string))
    "children kinds"
    [ "step"; "step"; "async"; "async"; "step" ]
    kinds;
  Alcotest.(check (list (pair int int)))
    "edges are Figure 11's" [ (2, 4); (3, 4) ]
    (List.sort compare g.Repair.Depgraph.edges)

let test_crossing_queries () =
  let graphs = build_graphs ~coalesce:false fib3 in
  let g =
    List.find
      (fun (g : Repair.Depgraph.t) ->
        Sdpst.Node.is_async g.tree g.lca
        && Repair.Depgraph.n_edges g = 2)
      graphs
  in
  Alcotest.(check bool) "edge (2,4) crosses k=2" true
    (Repair.Depgraph.are_crossing g ~i:0 ~k:2 ~j:4);
  Alcotest.(check bool) "edge (2,4) crosses k=3" true
    (Repair.Depgraph.are_crossing g ~i:0 ~k:3 ~j:4);
  Alcotest.(check bool) "nothing crosses k=1" false
    (Repair.Depgraph.are_crossing g ~i:0 ~k:1 ~j:4);
  Alcotest.(check bool) "restricted to [2..3] nothing crosses" false
    (Repair.Depgraph.are_crossing g ~i:2 ~k:2 ~j:3)

let test_coalescing () =
  (* Many consecutive sink steps with the same predecessors collapse. *)
  let src =
    {|
var a: int[] = new int[8];
def main() {
  async { for (i = 0 to 7) { a[i] = i; } }
  var s: int = 0;
  for (i = 0 to 7) { s = s + a[i]; }
  print(s);
}
|}
  in
  let raw = build_graphs ~coalesce:false src in
  let merged = build_graphs ~coalesce:true src in
  let nraw = Repair.Depgraph.n_vertices (List.hd raw) in
  let nmerged = Repair.Depgraph.n_vertices (List.hd merged) in
  Alcotest.(check bool)
    (Fmt.str "coalescing shrinks (%d -> %d)" nraw nmerged)
    true (nmerged < nraw);
  Alcotest.(check int) "raw count recorded"
    nraw (List.hd merged).Repair.Depgraph.n_raw;
  (* the async is a singleton vertex in both *)
  let asyncs g =
    Array.to_list g.Repair.Depgraph.is_async
    |> List.filter (fun b -> b)
    |> List.length
  in
  Alcotest.(check int) "async vertices preserved" (asyncs (List.hd raw))
    (asyncs (List.hd merged))

let test_times_are_composed () =
  let src =
    {|
var a: int[] = new int[4];
def main() {
  async { work(50); a[0] = 1; }
  work(10);
  work(20);
  print(a[0]);
}
|}
  in
  let raw = List.hd (build_graphs ~coalesce:false src) in
  let merged = List.hd (build_graphs ~coalesce:true src) in
  let total g =
    Array.fold_left
      (fun acc (t, a) -> if a then acc else acc + t)
      0
      (Array.map2
         (fun t a -> (t, a))
         g.Repair.Depgraph.times g.Repair.Depgraph.is_async)
  in
  Alcotest.(check int)
    "non-async time preserved by coalescing" (total raw) (total merged)

(* Pure-sink coalescing regression (the mergesort DP blow-up).
   Sinks racing with different subsets of the sources must still collapse
   into one vertex, and the DP must still produce the two-async finish. *)
let test_pure_sink_coalescing () =
  let src =
    {|
var a: int[] = new int[16];
def main() {
  async { for (i = 0 to 7) { a[i] = i; } }
  async { for (i = 8 to 15) { a[i] = i; } }
  var s: int = 0;
  for (i = 0 to 15) { s = s + a[i]; }
  for (i = 0 to 15 by 3) { s = s + a[i]; }
  print(s);
}
|}
  in
  let prog = Mhj.Front.compile src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let tree = res.Rt.Interp.tree in
  let races = Espbags.Race.dedupe_by_steps (Espbags.Detector.races det) in
  let span, _ = Sdpst.Analysis.span_memo tree in
  let lca = Sdpst.Lca.ns_lca tree (List.hd races).src (List.hd races).sink in
  let g = Oracles.List_depgraph.build ~span tree lca races in
  (* the ~40 sink steps (reading different cells, hence racing with
     different async subsets) must coalesce into very few vertices *)
  Alcotest.(check bool)
    (Fmt.str "few vertices (%d raw -> %d)" g.Repair.Depgraph.n_raw
       (Repair.Depgraph.n_vertices g))
    true
    (Repair.Depgraph.n_vertices g <= 8);
  let valid = Repair.Valid.make_checker g in
  let out = Repair.Dp_place.solve ~valid g in
  Alcotest.(check bool) "resolves" true
    (Repair.Dp_place.resolves_all g out.finishes);
  Alcotest.(check int) "one finish interval" 1 (List.length out.finishes)

(* ------------------------------------------------------------------ *)
(* One-walk lifting vs the per-pair ancestor queries                   *)
(* ------------------------------------------------------------------ *)

(* Progen seeds checked: 1-50, or TDR_QCHECK_COUNT (1-300 under @ci). *)
let progen_count =
  match Option.bind (Sys.getenv_opt "TDR_QCHECK_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 50

(* Every pair's lift — (NS-LCA, source child, sink child) — equals
   [Lca.ns_lca] plus [Lca.nonscope_child_ancestor] of both endpoints. *)
let check_lifts label prog =
  let d = Repair.Driver.detect Repair.Options.default prog in
  let pairs = Lazy.force d.Repair.Driver.pairs in
  let module P = Espbags.Race.Pairs in
  let tree = P.tree pairs in
  let lifter = Sdpst.Lca.lifter tree in
  for k = 0 to P.length pairs - 1 do
    let src = P.src_id pairs k and sink = P.sink_id pairs k in
    let l = Sdpst.Lca.lift lifter ~src ~sink in
    let l' = Sdpst.Lca.ns_lca tree src sink in
    let child n = Sdpst.Lca.nonscope_child_ancestor tree ~anc:l' n in
    if
      l <> l'
      || Sdpst.Lca.src_child lifter <> child src
      || Sdpst.Lca.sink_child lifter <> child sink
    then
      Alcotest.failf "%s: pair %d (%a, %a): lifted (%a, %d, %d), expected \
                      (%a, %d, %d)"
        label k (Sdpst.Node.pp tree) src (Sdpst.Node.pp tree) sink
        (Sdpst.Node.pp tree) l (Sdpst.Lca.src_child lifter)
        (Sdpst.Lca.sink_child lifter) (Sdpst.Node.pp tree) l' (child src)
        (child sink)
  done

let test_lift_table1 () =
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      check_lifts b.name (Benchsuite.Bench.stripped_program b))
    Benchsuite.Suite.all

let test_lift_progen () =
  for seed = 1 to progen_count do
    check_lifts
      (Fmt.str "progen %d" seed)
      (Mhj.Front.compile (Benchsuite.Progen.generate ~seed ()))
  done

(* ------------------------------------------------------------------ *)
(* Spawn-free projection vs unprojected step pairs                     *)
(* ------------------------------------------------------------------ *)

(* [Driver.place_pairs] (projected pairs) against [Oracles.Step_place]
   (step pairs as they stand): the same groups — NS-LCA, vertex and edge
   counts, DP cost and insertions, or the fallback where the DP is
   unsatisfiable — and the same merged placement. *)
let check_projection label prog =
  let d = Repair.Driver.detect Repair.Options.default prog in
  let pairs = Lazy.force d.Repair.Driver.pairs in
  if Espbags.Race.Pairs.length pairs > 0 then begin
    let groups, merged = Repair.Driver.place_pairs ~program:prog pairs in
    let oracle, oracle_merged = Oracles.Step_place.place ~program:prog pairs in
    let fail fmt = Alcotest.failf ("%s: " ^^ fmt) label in
    if List.length groups <> List.length oracle then
      fail "%d groups, oracle %d" (List.length groups) (List.length oracle);
    List.iter2
      (fun (g : Repair.Driver.group_result) (o : Oracles.Step_place.group) ->
        if
          g.lca_id <> o.lca || g.n_vertices <> o.n_vertices
          || g.n_edges <> o.n_edges
        then
          fail "group %d: %d vertices %d edges; oracle group %d: %d, %d"
            g.lca_id g.n_vertices g.n_edges o.lca o.n_vertices o.n_edges;
        match o.solved with
        | Some (cost, ins) ->
            if g.fell_back || g.dp_cost <> cost || g.insertions <> ins then
              fail "group %d: cost %d, oracle %d, or other insertions"
                g.lca_id g.dp_cost cost
        | None ->
            if not g.fell_back then
              fail "group %d: oracle unsatisfiable" g.lca_id)
      groups oracle;
    match oracle_merged with
    | Some m when m <> merged -> fail "merged placements differ"
    | _ -> ()
  end

let projection_matches_step_pairs =
  QCheck.Test.make
    ~name:"projected placement = step-pair placement (Progen)"
    ~count:progen_count
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      check_projection
        (Fmt.str "progen %d" seed)
        (Mhj.Front.compile (Benchsuite.Progen.generate ~seed ()));
      true)

let test_projection_samples () =
  let dir = "../samples" in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".mhj")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "samples found" true (List.length files >= 5);
  List.iter
    (fun f ->
      check_projection f (Mhj.Front.compile (In_channel.with_open_text
                                                (Filename.concat dir f)
                                                In_channel.input_all)))
    (List.sort compare files);
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      check_projection b.name (Benchsuite.Bench.stripped_program b))
    Benchsuite.Suite.all

let () =
  Alcotest.run "depgraph"
    [
      ( "construction",
        [
          Alcotest.test_case "fib Figure 10/11" `Quick test_fib_figure11;
          Alcotest.test_case "crossing queries" `Quick test_crossing_queries;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "runs collapse" `Quick test_coalescing;
          Alcotest.test_case "times composed" `Quick test_times_are_composed;
          Alcotest.test_case "pure sinks collapse" `Quick
            test_pure_sink_coalescing;
        ] );
      ( "lifting",
        [
          Alcotest.test_case "Table 1 lifts" `Slow test_lift_table1;
          Alcotest.test_case "Progen lifts" `Slow test_lift_progen;
        ] );
      ( "projection",
        [
          Alcotest.test_case "samples and Table 1" `Slow
            test_projection_samples;
          QCheck_alcotest.to_alcotest projection_matches_step_pairs;
        ] );
    ]
