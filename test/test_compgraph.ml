(* Tests for the computation graph and the greedy scheduling simulator
   (the substrate behind Figure 16). *)

let run src = Rt.Interp.run (Mhj.Front.compile src)

let graph_of src = Compgraph.Graph.of_sdpst (run src).tree

let test_graph_shape () =
  let g = graph_of "def main() { print(1); async { print(2); } print(3); }" in
  (* source + 3 steps + root join = 5 nodes *)
  Alcotest.(check int) "nodes" 5 (Compgraph.Graph.n_nodes g);
  Alcotest.(check bool) "edges topological" true
    (let ok = ref true in
     for i = 0 to Compgraph.Graph.n_nodes g - 1 do
       List.iter (fun j -> if j <= i then ok := false) (Compgraph.Graph.succs g i)
     done;
     !ok)

let test_metrics_match_sdpst () =
  List.iter
    (fun src ->
      let res = run src in
      let g = Compgraph.Graph.of_sdpst res.tree in
      Alcotest.(check int) "work" res.work (Compgraph.Metrics.work g);
      Alcotest.(check int) "span = CPL"
        (Sdpst.Analysis.critical_path_length res.tree)
        (Compgraph.Metrics.span g))
    [
      "def main() { work(10); }";
      "def main() { async { work(5); } work(9); }";
      "def main() { finish { async { work(5); } async { work(7); } } work(2); }";
      "def main() { for (i = 0 to 4) { async { work(10); } } }";
      {|
def f(n: int) {
  if (n > 0) {
    finish { async { f(n - 1); } async { f(n - 1); } }
    work(3);
  }
}
def main() { f(4); }
|};
    ]

let metrics_match_on_random =
  QCheck.Test.make ~name:"graph span equals S-DPST CPL on random programs"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let res = run src in
      let g = Compgraph.Graph.of_sdpst res.tree in
      Compgraph.Metrics.work g = res.work
      && Compgraph.Metrics.span g
         = Sdpst.Analysis.critical_path_length res.tree)

let test_schedule_extremes () =
  let res = run "def main() { for (i = 0 to 9) { async { work(10); } } }" in
  let g = Compgraph.Graph.of_sdpst res.tree in
  let t1 = Compgraph.Sched.makespan ~procs:1 g in
  let tinf = Compgraph.Sched.makespan ~procs:10_000 g in
  Alcotest.(check int) "T_1 = work" (Compgraph.Metrics.work g) t1;
  Alcotest.(check int) "T_inf = span" (Compgraph.Metrics.span g) tinf

(* Brent's and Graham's bounds on a greedy schedule of [g] at [procs]
   processors, and Brent's bound at [2 * procs].  Not [tp2 <= tp]: greedy
   list scheduling is not monotone in the processor count (Graham's
   anomalies), see [test_graham_anomaly]. *)
let greedy_bounds g procs =
  let work = Compgraph.Metrics.work g in
  let span = Compgraph.Metrics.span g in
  let tp = Compgraph.Sched.makespan ~procs g in
  let tp2 = Compgraph.Sched.makespan ~procs:(2 * procs) g in
  tp >= span
  && tp >= (work + procs - 1) / procs
  && tp <= (work / procs) + span
  && tp2 <= (work / (2 * procs)) + span

let brent_bound =
  QCheck.Test.make
    ~name:"greedy schedule satisfies Brent's bound at p and 2p"
    ~count:30
    QCheck.(pair (int_range 0 100000) (int_range 1 16))
    (fun (seed, procs) ->
      let src = Benchsuite.Progen.generate ~seed () in
      greedy_bounds (Compgraph.Graph.of_sdpst (run src).tree) procs)

(* Graham's anomaly: twice the processors can lengthen a greedy
   schedule, so the bounds must allow it. *)
let test_graham_anomaly () =
  let g = graph_of (Benchsuite.Progen.generate ~seed:31426 ()) in
  Alcotest.(check int) "T_5" 246 (Compgraph.Sched.makespan ~procs:5 g);
  Alcotest.(check int) "T_10" 252 (Compgraph.Sched.makespan ~procs:10 g);
  Alcotest.(check bool) "greedy bounds at p = 5" true (greedy_bounds g 5)

let test_sched_stats () =
  let res =
    run "def main() { finish { async { work(10); } async { work(10); } } }"
  in
  let g = Compgraph.Graph.of_sdpst res.tree in
  let s = Compgraph.Sched.simulate ~procs:2 g in
  Alcotest.(check int) "busy = work" (Compgraph.Metrics.work g) s.busy;
  Alcotest.(check bool) "ready queue observed" true (s.max_ready >= 1);
  Alcotest.check_raises "procs must be positive"
    (Invalid_argument "Sched.simulate: procs must be positive") (fun () ->
      ignore (Compgraph.Sched.simulate ~procs:0 g))

(* Two predecessors (B, C) complete at the same instant; their successors
   (D, E) must both be in the ready queue before anyone is dispatched.
   With the one-event-at-a-time bug, only one successor was visible at
   dispatch time, so [max_ready] never reached 2. *)
let test_sched_simultaneous_drain () =
  let g = Compgraph.Graph.create () in
  let a = Compgraph.Graph.add_node g 1 in
  let b = Compgraph.Graph.add_node g 2 in
  let c = Compgraph.Graph.add_node g 2 in
  let d = Compgraph.Graph.add_node g 1 in
  let e = Compgraph.Graph.add_node g 1 in
  Compgraph.Graph.add_edge g a b;
  Compgraph.Graph.add_edge g a c;
  Compgraph.Graph.add_edge g b d;
  Compgraph.Graph.add_edge g c e;
  let s = Compgraph.Sched.simulate ~procs:2 g in
  Alcotest.(check int) "makespan" 4 s.makespan;
  Alcotest.(check int) "busy" 7 s.busy;
  Alcotest.(check int) "both successors ready together" 2 s.max_ready

(* Diamond variant: both join predecessors finish simultaneously; the
   join must release exactly once and the schedule stays deterministic. *)
let test_sched_diamond_join () =
  let g = Compgraph.Graph.create () in
  let a = Compgraph.Graph.add_node g 1 in
  let b = Compgraph.Graph.add_node g 3 in
  let c = Compgraph.Graph.add_node g 3 in
  let d = Compgraph.Graph.add_node g 2 in
  Compgraph.Graph.add_edge g a b;
  Compgraph.Graph.add_edge g a c;
  Compgraph.Graph.add_edge g b d;
  Compgraph.Graph.add_edge g c d;
  let s = Compgraph.Sched.simulate ~procs:2 g in
  Alcotest.(check int) "makespan" 6 s.makespan;
  Alcotest.(check int) "busy = work" (Compgraph.Metrics.work g) s.busy

let test_pruned_tree_graph () =
  let res =
    run "def main() { async { work(100); } finish { async { work(40); } } }"
  in
  let span_before = Sdpst.Analysis.critical_path_length res.tree in
  ignore (Sdpst.Analysis.prune res.tree ~keep:(fun _ -> false));
  let g = Compgraph.Graph.of_sdpst res.tree in
  Alcotest.(check int) "span preserved through pruning" span_before
    (Compgraph.Metrics.span g)

(* ---------------- work-stealing simulation (Steal) ---------------- *)

let test_steal_single_proc_is_serial () =
  let res = run "def main() { for (i = 0 to 9) { async { work(10); } } }" in
  let g = Compgraph.Graph.of_sdpst res.tree in
  let s = Oracles.Steal.simulate ~procs:1 g in
  Alcotest.(check int) "T_1 = work" (Compgraph.Metrics.work g) s.makespan;
  Alcotest.(check int) "no steals on one processor" 0 s.steals

let test_steal_policies_complete () =
  let res =
    run
      {|
def f(n: int) {
  if (n > 0) {
    finish { async { f(n - 1); } async { f(n - 1); } }
    work(3);
  }
}
def main() { f(5); }
|}
  in
  let g = Compgraph.Graph.of_sdpst res.tree in
  let span = Compgraph.Metrics.span g in
  let work = Compgraph.Metrics.work g in
  List.iter
    (fun policy ->
      let s = Oracles.Steal.simulate ~procs:4 ~policy g in
      if s.makespan < span then Alcotest.fail "below span";
      if s.makespan < (work + 3) / 4 then Alcotest.fail "below work/p";
      (* stealing costs overhead, but a greedy-ish schedule should stay
         within work/p + c*span for a small constant *)
      if s.makespan > (work / 4) + (4 * span) then
        Alcotest.failf "makespan %d too far above bound" s.makespan)
    [ Oracles.Steal.Work_first; Oracles.Steal.Help_first ]

let test_steal_parallel_graph_steals () =
  let res = run "def main() { for (i = 0 to 19) { async { work(50); } } }" in
  let g = Compgraph.Graph.of_sdpst res.tree in
  let s = Oracles.Steal.simulate ~procs:4 g in
  Alcotest.(check bool) "steals happen" true (s.steals > 0);
  (* 20 x 50 work over 4 procs: makespan close to 250 + overheads *)
  Alcotest.(check bool)
    (Fmt.str "nearly balanced (makespan %d)" s.makespan)
    true
    (s.makespan < 2 * ((Compgraph.Metrics.work g / 4) + Compgraph.Metrics.span g))

let steal_deterministic =
  QCheck.Test.make ~name:"steal simulation is deterministic" ~count:20
    QCheck.(int_range 0 100000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let res = run src in
      let g = Compgraph.Graph.of_sdpst res.tree in
      Oracles.Steal.makespan ~procs:3 ~seed:7 g
      = Oracles.Steal.makespan ~procs:3 ~seed:7 g)

let steal_respects_span =
  QCheck.Test.make ~name:"steal makespan >= span, >= work/p" ~count:25
    QCheck.(pair (int_range 0 100000) (int_range 1 8))
    (fun (seed, procs) ->
      let src = Benchsuite.Progen.generate ~seed () in
      let res = run src in
      let g = Compgraph.Graph.of_sdpst res.tree in
      let m = Oracles.Steal.makespan ~procs g in
      m >= Compgraph.Metrics.span g
      && m >= Compgraph.Metrics.work g / procs)

let () =
  Alcotest.run "compgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "shape" `Quick test_graph_shape;
          Alcotest.test_case "metrics match S-DPST" `Quick
            test_metrics_match_sdpst;
          QCheck_alcotest.to_alcotest metrics_match_on_random;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "extremes" `Quick test_schedule_extremes;
          QCheck_alcotest.to_alcotest brent_bound;
          Alcotest.test_case "Graham's anomaly allowed" `Quick
            test_graham_anomaly;
          Alcotest.test_case "stats" `Quick test_sched_stats;
          Alcotest.test_case "simultaneous completions drain" `Quick
            test_sched_simultaneous_drain;
          Alcotest.test_case "diamond join" `Quick test_sched_diamond_join;
          Alcotest.test_case "pruned tree" `Quick test_pruned_tree_graph;
        ] );
      ( "work-stealing",
        [
          Alcotest.test_case "single proc serial" `Quick
            test_steal_single_proc_is_serial;
          Alcotest.test_case "policies complete" `Quick
            test_steal_policies_complete;
          Alcotest.test_case "steals happen" `Quick
            test_steal_parallel_graph_steals;
          QCheck_alcotest.to_alcotest steal_deterministic;
          QCheck_alcotest.to_alcotest steal_respects_span;
        ] );
    ]
