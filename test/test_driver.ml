(* End-to-end tests of the repair driver on the paper's examples
   (Figures 1/2/8/15) and on targeted synchronization patterns. *)

let repair ?(mode = Espbags.Detector.Mrw) src =
  Repair.Driver.repair ~options:{ Repair.Options.default with mode }
    (Mhj.Front.compile src)

let race_free prog =
  Espbags.Detector.race_count
    (fst (Espbags.Detector.detect Espbags.Detector.Mrw prog))
  = 0

let cpl prog =
  Sdpst.Analysis.critical_path_length (Rt.Interp.run prog).tree

let out prog = (Rt.Interp.run prog).output

(* ------------------------------------------------------------------ *)
(* Fibonacci (Figures 8/15)                                            *)
(* ------------------------------------------------------------------ *)

let fib_buggy =
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
  async fib(r, 0, 8);
  print(r[0]);
}
|}

let test_fib_repair () =
  let report = repair fib_buggy in
  Alcotest.(check bool) "converged" true report.converged;
  Alcotest.(check int) "single iteration" 1 (List.length report.iterations);
  Alcotest.(check bool) "race-free" true (race_free report.program);
  Alcotest.(check string) "computes fib(8)" "21" (String.trim (out report.program));
  (* Figure 15: one finish around the two recursive asyncs (inside fib),
     plus one around the async in main *)
  Alcotest.(check int) "two static finishes" 2
    (Mhj.Ast.count_finishes report.program);
  (* the fib-internal finish wraps exactly the two asyncs *)
  let fib_fn = Option.get (Mhj.Ast.find_func report.program "fib") in
  let found = ref false in
  Mhj.Ast.iter_stmts
    (fun st ->
      match st.Mhj.Ast.s with
      | Mhj.Ast.Finish { s = Mhj.Ast.Block b; _ } ->
          let kinds =
            List.map
              (fun (s : Mhj.Ast.stmt) ->
                match s.s with Mhj.Ast.Async _ -> "async" | _ -> "other")
              b.stmts
          in
          if kinds = [ "async"; "async" ] then found := true
      | _ -> ())
    { report.program with funcs = [ fib_fn ] };
  Alcotest.(check bool) "finish wraps the two asyncs (Fig. 15)" true !found

let test_fib_parallelism_restored () =
  (* The repaired fib must have the same CPL as the expert version. *)
  let report = repair fib_buggy in
  let expert =
    Mhj.Front.compile
      {|
def fib(ret: int[], reti: int, n: int) {
  if (n < 2) { ret[reti] = n; return; }
  val x: int[] = new int[1];
  val y: int[] = new int[1];
  finish {
    async fib(x, 0, n - 1);
    async fib(y, 0, n - 2);
  }
  ret[reti] = x[0] + y[0];
}
def main() {
  val r: int[] = new int[1];
  finish { async fib(r, 0, 8); }
  print(r[0]);
}
|}
  in
  Alcotest.(check int) "CPL equals expert placement" (cpl expert)
    (cpl report.program)

(* ------------------------------------------------------------------ *)
(* Quicksort and mergesort motivation examples (Figures 1/2)           *)
(* ------------------------------------------------------------------ *)

let test_quicksort_keeps_recursion_async () =
  let b = Benchsuite.Quicksort.source ~n:100 ~seed:5 in
  let stripped = Mhj.Transform.strip_finishes (Mhj.Front.compile b) in
  let report = Repair.Driver.repair stripped in
  Alcotest.(check bool) "converged" true report.converged;
  Alcotest.(check bool) "race-free" true (race_free report.program);
  (* same parallelism as the expert version (finish at the root call) *)
  let expert = Mhj.Front.compile b in
  Alcotest.(check int) "CPL equals expert" (cpl expert) (cpl report.program);
  Alcotest.(check string) "sorted output" (out expert) (out report.program)

let test_mergesort_needs_inner_finish () =
  let b = Benchsuite.Mergesort.source ~n:64 ~seed:3 in
  let stripped = Mhj.Transform.strip_finishes (Mhj.Front.compile b) in
  let report = Repair.Driver.repair stripped in
  Alcotest.(check bool) "converged" true report.converged;
  Alcotest.(check bool) "race-free" true (race_free report.program);
  let expert = Mhj.Front.compile b in
  Alcotest.(check int) "CPL equals expert" (cpl expert) (cpl report.program);
  Alcotest.(check string) "same output" (out expert) (out report.program)

(* ------------------------------------------------------------------ *)
(* Synchronization patterns                                            *)
(* ------------------------------------------------------------------ *)

let patterns =
  [
    ( "independent asyncs stay unsynchronized",
      "var x: int = 0;\n\
       def main() { async { work(50); } async { work(60); } x = 1; }",
      0 (* no races, no finishes *) );
    ( "phased pipeline",
      {|
var a: int[] = new int[4];
var b: int[] = new int[4];
def main() {
  for (i = 0 to 3) { async { a[i] = i * 2; } }
  for (i = 0 to 3) { async { b[i] = a[i] + 1; } }
  print(b[3]);
}
|},
      2 (* a finish per phase *) );
    ( "producer before consumer",
      "var x: int = 0;\n\
       def main() { async { x = 1; } async { print(x); } }",
      1 );
  ]

let test_patterns () =
  List.iter
    (fun (name, src, expected_finishes) ->
      let report = repair src in
      if not report.converged then Alcotest.failf "%s: did not converge" name;
      if not (race_free report.program) then
        Alcotest.failf "%s: races remain" name;
      let got = Mhj.Ast.count_finishes report.program in
      if got <> expected_finishes then
        Alcotest.failf "%s: expected %d finishes, got %d" name
          expected_finishes got;
      (* semantics preserved *)
      let ser = Rt.Interp.run_elision (Mhj.Front.compile src) in
      if ser.output <> out report.program then
        Alcotest.failf "%s: output changed" name)
    patterns

let test_already_synchronized_untouched () =
  let src =
    "var x: int = 0;\ndef main() { finish { async { x = 1; } } print(x); }"
  in
  let report = repair src in
  Alcotest.(check int) "no iterations needed" 0
    (List.length report.iterations);
  Alcotest.(check int) "program unchanged" 1
    (Mhj.Ast.count_finishes report.program)

(* Paper §4.1 / Figure 7: with two parallel readers and one writer, SRW
   tracks a single reader, so SRW-driven repair needs a second iteration
   to fix the race its first run could not see; MRW fixes both at once. *)
let test_srw_needs_more_iterations () =
  (* durations chosen so the DP's optimum wraps only the reader it can
     see: the first reader is cheap and the writer is expensive, so
     serializing just the first reader beats also waiting for the long
     second reader before the writer may start *)
  let src =
    {|
var x: int = 0;
def main() {
  async { print(x); }
  async { work(500); print(x); }
  async { x = 1; work(100); }
}
|}
  in
  let mrw = repair ~mode:Espbags.Detector.Mrw src in
  let srw = repair ~mode:Espbags.Detector.Srw src in
  Alcotest.(check bool) "both converge" true (mrw.converged && srw.converged);
  Alcotest.(check int) "MRW repairs in one iteration" 1
    (List.length mrw.iterations);
  Alcotest.(check bool) "SRW needs more iterations" true
    (List.length srw.iterations > 1);
  Alcotest.(check bool) "both end race-free" true
    (race_free mrw.program && race_free srw.program)

let test_srw_mode () =
  (* SRW may need several repair iterations but must converge too. *)
  let report = repair ~mode:Espbags.Detector.Srw fib_buggy in
  Alcotest.(check bool) "converged" true report.converged;
  Alcotest.(check bool) "race-free" true (race_free report.program);
  Alcotest.(check string) "correct" "21" (String.trim (out report.program))

let test_statement_order_preserved () =
  (* Problem 1 condition 5: repair only wraps, never reorders. *)
  let src =
    "var x: int = 0;\n\
     def main() { print(1); async { x = 2; } print(x); print(3); }"
  in
  let report = repair src in
  let ser = Rt.Interp.run_elision (Mhj.Front.compile src) in
  Alcotest.(check string) "order (and values) preserved" ser.output
    (out report.program)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* The paper's §6.1 incremental strategy (live S-DPST updates) must agree
   with the batch strategy on convergence, race freedom and parallelism. *)
let test_incremental_strategy () =
  List.iter
    (fun src ->
      let prog = Mhj.Front.compile src in
      let batch = Repair.Driver.repair
          ~options:{ Repair.Options.default with placement = `Batch } prog in
      let incr = Repair.Driver.repair
          ~options:{ Repair.Options.default with placement = `Incremental }
          prog in
      Alcotest.(check bool) "both converge" true
        (batch.converged && incr.converged);
      Alcotest.(check bool) "both race-free" true
        (race_free batch.program && race_free incr.program);
      Alcotest.(check string) "same output" (out batch.program)
        (out incr.program);
      Alcotest.(check int) "same critical path" (cpl batch.program)
        (cpl incr.program))
    [
      fib_buggy;
      "var x: int = 0;\ndef main() { async { x = 1; } print(x); }";
      {|
var a: int[] = new int[4];
var b: int[] = new int[4];
def main() {
  for (i = 0 to 3) { async { a[i] = i * 2; } }
  for (i = 0 to 3) { async { b[i] = a[i] + 1; } }
  print(b[3]);
}
|};
    ]

let incremental_matches_batch =
  QCheck.Test.make ~name:"incremental strategy matches batch on random programs"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = Mhj.Front.compile src in
      let batch = Repair.Driver.repair
          ~options:{ Repair.Options.default with placement = `Batch } prog in
      let incr = Repair.Driver.repair
          ~options:{ Repair.Options.default with placement = `Incremental }
          prog in
      batch.converged && incr.converged
      && race_free batch.program
      && race_free incr.program
      && out batch.program = out incr.program)

(* Races between two isolated sections are discharged on the pair set:
   the first iteration's race and pair counts are the list-path counts
   of the surviving races, and the discharged pairs demand no finish. *)
let test_isolated_pairs_discharged () =
  let prog =
    Mhj.Front.compile
      {|
var x: int = 0;
var y: int = 0;
def main() {
  for (i = 0 to 3) {
    async {
      isolated { x = x + 1; }
      y = y + i;
    }
  }
  print(y);
}
|}
  in
  let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let all = Espbags.Detector.races det in
  let surviving = Repair.Isolate.suppress prog all in
  Alcotest.(check bool) "some races discharged" true
    (List.length surviving < List.length all);
  let r = Repair.Driver.repair prog in
  Alcotest.(check bool) "converged" true r.converged;
  match r.iterations with
  | it :: _ ->
      Alcotest.(check int) "races after discharge" (List.length surviving)
        it.n_races;
      Alcotest.(check int) "pairs after discharge"
        (List.length (Espbags.Race.dedupe_by_steps surviving))
        it.n_race_pairs
  | [] -> Alcotest.fail "no repair iteration"

let test_report_rendering () =
  let report = repair fib_buggy in
  let text =
    Repair.Report.to_string (Mhj.Front.compile fib_buggy) report
  in
  Alcotest.(check bool) "mentions race-free" true
    (contains ~affix:"race-free" text);
  Alcotest.(check bool) "mentions insert finish" true
    (contains ~affix:"insert finish" text)

(* perfbench turns every span under [place_for_tree] into a per-layer
   metric, and its schema check rejects an undeclared one: the names
   placement emits are exactly these four. *)
let test_placement_span_names () =
  let names = Hashtbl.create 8 in
  Obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    (fun () ->
      List.iter
        (fun (b : Benchsuite.Bench.t) ->
          let program = Benchsuite.Bench.stripped_program b in
          let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw program in
          Obs.Trace.reset ();
          ignore
            (Repair.Driver.place_for_tree ~program
               (Repair.Isolate.suppress program (Espbags.Detector.races det)));
          List.iter
            (fun (e : Obs.Trace.event) -> Hashtbl.replace names e.name ())
            (Obs.Trace.events ()))
        Benchsuite.Suite.all);
  Alcotest.(check (list string))
    "span names"
    [ "depgraph"; "dp-place"; "nslca-group"; "scopecheck" ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) names []))

(* ------------------------------------------------------------------ *)
(* Spawn-free projection                                               *)
(* ------------------------------------------------------------------ *)

let mergesort () =
  Benchsuite.Bench.stripped_program
    (Option.get (Benchsuite.Suite.find "Mergesort"))

let metric (r : Repair.Driver.report) k = List.assoc k r.metrics

(* Stripped Mergesort's 431,688 step pairs lift as at most 10,000
   projected pairs; the race and pair counts stay those of the steps. *)
let test_lifted_pairs () =
  let r = Repair.Driver.repair (mergesort ()) in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check int) "driver.race_pairs" 431688
    (metric r "driver.race_pairs");
  Alcotest.(check int) "driver.races" 444489 (metric r "driver.races");
  let lifted = metric r "driver.lifted_pairs" in
  if lifted <= 0 || lifted > 10_000 then
    Alcotest.failf "driver.lifted_pairs = %d, expected 1..10000" lifted

(* Under an S-DPST budget the prune collapses race-free scopes before
   placement: every representative is still a live, uncollapsed step of
   the pruned tree, and the repair converges race-free. *)
let test_projection_after_prune () =
  let prog = mergesort () in
  let options =
    {
      Repair.Options.default with
      budgets = { Repair.Guard.unlimited with sdpst_nodes = Some 200 };
    }
  in
  let d = Repair.Driver.detect options prog in
  let tree = d.run.result.Rt.Interp.tree in
  let nodes_before = tree.Sdpst.Node.n_nodes in
  let r, _ = Repair.Driver.repair_detected ~options ~first:d prog in
  Alcotest.(check bool) "pruned" true (tree.Sdpst.Node.n_nodes < nodes_before);
  Alcotest.(check bool) "converged" true (r.converged && r.final_races = 0);
  Alcotest.(check bool) "race-free" true (race_free r.program);
  let live = Hashtbl.create 1024 in
  Sdpst.Node.iter_tree (fun n -> Hashtbl.replace live n ()) tree;
  let projected = Repair.Driver.project (Lazy.force d.pairs) in
  Alcotest.(check bool) "projection shrinks" true
    (Espbags.Race.Pairs.length projected
    < Espbags.Race.Pairs.length (Lazy.force d.pairs));
  let module P = Espbags.Race.Pairs in
  for k = 0 to P.length projected - 1 do
    List.iter
      (fun n ->
        if
          (not (Hashtbl.mem live n))
          || (not (Sdpst.Node.is_step tree n))
          || Sdpst.Node.collapsed tree n <> None
        then
          Alcotest.failf "representative %a is not a live step"
            (Sdpst.Node.pp tree) n)
      [ P.src_id projected k; P.sink_id projected k ]
  done

let () =
  Alcotest.run "driver"
    [
      ( "fib",
        [
          Alcotest.test_case "repair (Fig. 15)" `Quick test_fib_repair;
          Alcotest.test_case "parallelism restored" `Quick
            test_fib_parallelism_restored;
        ] );
      ( "sorts",
        [
          Alcotest.test_case "quicksort (Fig. 2)" `Quick
            test_quicksort_keeps_recursion_async;
          Alcotest.test_case "mergesort (Fig. 1)" `Quick
            test_mergesort_needs_inner_finish;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "pattern suite" `Quick test_patterns;
          Alcotest.test_case "already synchronized" `Quick
            test_already_synchronized_untouched;
          Alcotest.test_case "SRW mode" `Quick test_srw_mode;
          Alcotest.test_case "SRW iteration count (Fig. 7)" `Quick
            test_srw_needs_more_iterations;
          Alcotest.test_case "statement order" `Quick
            test_statement_order_preserved;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "isolated pairs discharged" `Quick
            test_isolated_pairs_discharged;
          Alcotest.test_case "placement span names" `Slow
            test_placement_span_names;
        ] );
      ( "projection",
        [
          Alcotest.test_case "Mergesort lifted pairs" `Slow test_lifted_pairs;
          Alcotest.test_case "representatives after a prune" `Slow
            test_projection_after_prune;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "incremental = batch (paper examples)" `Quick
            test_incremental_strategy;
          QCheck_alcotest.to_alcotest incremental_matches_batch;
        ] );
    ]
