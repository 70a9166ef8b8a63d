(* Tests for the repair report (context-sensitive finish evidence, paper
   §9) and the coverage extension. *)

let fib_src n =
  Fmt.str
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
  async fib(r, 0, %d);
  print(r[0]);
}
|}
    n

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_contexts_per_placement () =
  let prog = Mhj.Front.compile (fib_src 8) in
  let report = Repair.Driver.repair prog in
  let it = List.hd report.iterations in
  let contexts =
    Repair.Report.contexts_per_placement (Mhj.Scopecheck.build prog) it
  in
  (* two static placements: the in-fib finish demanded by every internal
     call instance, the in-main finish demanded once *)
  Alcotest.(check int) "two static placements" 2 (List.length contexts);
  let counts = List.sort compare (List.map snd contexts) in
  Alcotest.(check int) "one single-context placement" 1 (List.hd counts);
  Alcotest.(check bool) "one many-context placement" true
    (List.nth counts 1 > 10)

let test_placement_span () =
  let prog = Mhj.Front.compile (fib_src 4) in
  let scopes = Mhj.Scopecheck.build prog in
  let report = Repair.Driver.repair prog in
  let it = List.hd report.iterations in
  List.iter
    (fun p ->
      match Repair.Report.placement_span scopes p with
      | Some (lo, hi) ->
          if Mhj.Loc.is_dummy lo || lo.Mhj.Loc.line > hi.Mhj.Loc.line then
            Alcotest.fail "bad span"
      | None -> Alcotest.fail "no span for placement")
    it.merged.Repair.Static_place.placements

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let test_coverage_full () =
  let prog = Mhj.Front.compile (fib_src 6) in
  let res = Rt.Interp.run prog in
  let c = Repair.Coverage.of_runs prog [ res.tree ] in
  Alcotest.(check int) "all asyncs covered" c.total_asyncs c.covered_asyncs;
  Alcotest.(check (list int)) "no uncovered asyncs" []
    (List.map (fun _ -> 0) c.uncovered_asyncs)

let test_coverage_partial () =
  (* fib(1) never reaches the recursive asyncs *)
  let prog = Mhj.Front.compile (fib_src 1) in
  let res = Rt.Interp.run prog in
  let c = Repair.Coverage.of_runs prog [ res.tree ] in
  Alcotest.(check int) "three asyncs total" 3 c.total_asyncs;
  Alcotest.(check int) "only main's async covered" 1 c.covered_asyncs;
  Alcotest.(check int) "two uncovered" 2 (List.length c.uncovered_asyncs);
  Alcotest.(check bool) "async coverage below 1" true
    (Repair.Coverage.async_coverage c < 1.0)

let test_coverage_union_of_runs () =
  let prog = Mhj.Front.compile (fib_src 1) in
  let prog2 = prog in
  let r1 = Rt.Interp.run prog in
  (* a second, larger input would cover more; simulate by reusing the same
     program with a tree from the bigger variant is not possible (different
     ids), so instead check union with itself is idempotent *)
  let c1 = Repair.Coverage.of_runs prog [ r1.tree ] in
  let c2 = Repair.Coverage.of_runs prog2 [ r1.tree; r1.tree ] in
  Alcotest.(check int) "idempotent union" c1.covered_stmts c2.covered_stmts

let test_coverage_flags_racy_gap () =
  (* the paper's motivation: a test that never runs an async cannot expose
     its races; coverage flags the gap *)
  let src =
    {|
var x: int = 0;
var flag: int = 0;
def main() {
  if (flag == 1) {
    async { x = 1; }
    print(x);
  }
  print(0);
}
|}
  in
  let prog = Mhj.Front.compile src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  Alcotest.(check int) "no race seen by this input" 0
    (Espbags.Detector.race_count det);
  let c = Repair.Coverage.of_runs prog [ res.tree ] in
  Alcotest.(check int) "but the async is uncovered" 1
    (List.length c.uncovered_asyncs)

let () =
  Alcotest.run "report"
    [
      ( "report",
        [
          Alcotest.test_case "contexts per placement" `Quick
            test_contexts_per_placement;
          Alcotest.test_case "placement span" `Quick test_placement_span;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "full" `Quick test_coverage_full;
          Alcotest.test_case "partial" `Quick test_coverage_partial;
          Alcotest.test_case "union" `Quick test_coverage_union_of_runs;
          Alcotest.test_case "flags racy gap" `Quick
            test_coverage_flags_racy_gap;
        ] );
    ]
