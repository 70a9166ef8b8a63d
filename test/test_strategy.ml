(* Repair-strategy tournament: candidate generation for each strategy,
   verification through the detect loop, CPL-based winner selection and
   the strategy.* metric family. *)

module Strategy = Repair.Strategy
module Score = Compgraph.Score

let compile = Mhj.Front.compile

let out prog = (Rt.Interp.run prog).Rt.Interp.output

let metric outcome key =
  match List.assoc_opt key outcome.Strategy.metrics with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" key

let cpl_of (c : Strategy.candidate) = (Option.get c.score).Score.cpl

let candidate outcome kind =
  List.find (fun (c : Strategy.candidate) -> c.kind = kind)
    outcome.Strategy.candidates

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* Figure 8 fib: parent reads the children's results too early.  Finish
   insertion restores the join and keeps the recursive parallelism. *)
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

(* Sibling reduction: every iteration accumulates into sum[0] after a
   heavy local computation.  Finish insertion can only serialize the
   whole loop; wrapping the (commutative) accumulation in [isolated]
   keeps the heavy() calls parallel. *)
let reduce_src =
  {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to 63) { acc = acc + n + j; }
  return acc;
}
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to 7) {
      async {
        val v: int = heavy(i);
        sum[0] = sum[0] + v;
      }
    }
  }
  print(sum[0]);
}
|}

(* Stride-8 stencil: iteration i reads the slot iteration i+8 writes,
   through a user call — so [isolated] is inapplicable and finish
   insertion serializes the loop, but an 8-iteration chunk boundary
   separates every conflicting pair. *)
let stencil_src =
  {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to 31) { acc = acc + n + j; }
  return acc;
}
def main() {
  val a: int[] = new int[16];
  finish {
    for (i = 0 to 15) {
      async {
        if (i < 8) { a[i] = heavy(a[i + 8]); }
        else { a[i] = heavy(i); }
      }
    }
  }
  var s: int = 0;
  for (k = 0 to 15) { s = s + a[k]; }
  print(s);
}
|}

(* A long serial prefix before one racy async: 2*10^7 loop iterations,
   far beyond a 1000-unit fuel budget. *)
let long_prefix_src =
  {|
def main() {
  var s: int = 0;
  for (i = 0 to 19999999) { s = s + 1; }
  val a: int[] = new int[1];
  val t: int = s;
  async { a[0] = t; }
  a[0] = 1;
  print(a[0]);
}
|}

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_fib_tournament () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check bool)
    "winner verified" true outcome.Strategy.winner.verified;
  Alcotest.(check string)
    "winner computes fib(8)" "21"
    (String.trim (out outcome.Strategy.program));
  let fin = candidate outcome Strategy.Finish in
  Alcotest.(check bool) "finish candidate verified" true fin.verified;
  (* whatever wins, it may not be worse than finish insertion *)
  Alcotest.(check bool)
    "winner cpl <= finish cpl" true
    (cpl_of outcome.Strategy.winner <= cpl_of fin);
  Alcotest.(check int)
    "strategy.winner metric matches" (metric outcome "strategy.winner")
    (match outcome.Strategy.winner.kind with
    | Strategy.Finish -> 0
    | Strategy.Isolated -> 1
    | Strategy.Elide -> 2
    | Strategy.Chunk -> 3)

let test_reduce_isolated_wins () =
  let prog = compile reduce_src in
  let expected = out prog in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check string)
    "winner keeps the reduction's value" expected
    (out outcome.Strategy.program);
  (* the accumulation race is between sibling iterations: finish can
     only serialize, isolated keeps the heavy() calls parallel *)
  let iso = candidate outcome Strategy.Isolated in
  Alcotest.(check bool) "isolated verified" true iso.verified;
  Alcotest.(check bool)
    "isolated candidate uses isolated sections" true
    (Mhj.Ast.count_isolated (Option.get iso.program) > 0);
  Alcotest.(check string) "isolated wins" "isolated"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  let fin = candidate outcome Strategy.Finish in
  (if fin.verified then
     Alcotest.(check bool)
       "isolated strictly beats finish" true
       (cpl_of iso < cpl_of fin));
  Alcotest.(check int) "winner metric says isolated" 1
    (metric outcome "strategy.winner");
  Alcotest.(check int) "isolated.verified metric" 1
    (metric outcome "strategy.isolated.verified")

let test_stencil_chunk_wins () =
  let prog = compile stencil_src in
  let expected = out prog in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check string)
    "winner keeps the stencil's value" expected
    (out outcome.Strategy.program);
  let chunk = candidate outcome Strategy.Chunk in
  Alcotest.(check bool) "chunk verified" true chunk.verified;
  (* the racing statement calls heavy(), so isolated is inapplicable *)
  let iso = candidate outcome Strategy.Isolated in
  Alcotest.(check bool) "isolated inapplicable" false iso.verified;
  Alcotest.(check string) "chunk wins" "chunk"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  Alcotest.(check int) "winner metric says chunk" 3
    (metric outcome "strategy.winner")

let test_single_strategy_elide () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Elide prog in
  Alcotest.(check string) "elide winner" "elide"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  Alcotest.(check bool) "verified" true outcome.Strategy.winner.verified;
  (* full elision leaves a sequential program *)
  Alcotest.(check int) "no asyncs left" 0
    (Mhj.Ast.count_asyncs outcome.Strategy.program);
  Alcotest.(check string) "still computes fib(8)" "21"
    (String.trim (out outcome.Strategy.program))

let test_single_strategy_isolated_inapplicable () =
  let prog = compile stencil_src in
  Alcotest.check_raises "isolated alone cannot repair the stencil"
    (Repair.Driver.Unrepairable
       "strategy isolated produced no race-free repair: racing statements \
        are not serializable in isolated")
    (fun () -> ignore (Strategy.run `Isolated prog))

let test_finish_choice_matches_driver () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Finish prog in
  let report = Repair.Driver.repair prog in
  Alcotest.(check int) "same finish count"
    (Mhj.Ast.count_finishes report.Repair.Driver.program)
    (Mhj.Ast.count_finishes outcome.Strategy.program);
  Alcotest.(check bool) "report carried" true
    (outcome.Strategy.finish_report <> None)

let test_both_backends_verify () =
  let prog = compile reduce_src in
  let outcome = Strategy.run `Tournament prog in
  List.iter
    (fun backend ->
      Alcotest.(check bool)
        (Fmt.str "winner race-free under %s"
           (match backend with `Espbags -> "espbags" | `Vclock -> "vclock"))
        true
        (Diff_harness.race_free ~backend outcome.Strategy.program))
    [ `Espbags; `Vclock ]

(* Every run of the input honours the fuel budget, the expected-output
   run included: the tournament stops on the fuel diagnostic long before
   a 5 s watchdog would. *)
let test_tournament_fuel_budget () =
  let prog = compile long_prefix_src in
  let options =
    {
      Repair.Options.default with
      budgets = { Repair.Guard.unlimited with fuel = Some 1000 };
    }
  in
  match
    Rt.Watchdog.with_timeout ~ms:(Some 5000) (fun () ->
        Strategy.run ~options `Tournament prog)
  with
  | _ -> Alcotest.fail "the tournament finished under a 1000-unit fuel budget"
  | exception e -> (
      match Repair.Diag.of_exn e with
      | Some d ->
          Alcotest.(check string)
            "fuel diagnostic"
            "error[budget]: execution exceeded its fuel budget (raise \
             --budget-fuel, or check the program for non-termination)"
            (Repair.Diag.to_string d)
      | None -> raise e)

let () =
  Alcotest.run "strategy"
    [
      ( "tournament",
        [
          Alcotest.test_case "fib: winner no worse than finish" `Quick
            test_fib_tournament;
          Alcotest.test_case "reduction: isolated wins" `Quick
            test_reduce_isolated_wins;
          Alcotest.test_case "stencil: chunk wins" `Quick
            test_stencil_chunk_wins;
          Alcotest.test_case "winner verifies under both backends" `Quick
            test_both_backends_verify;
          Alcotest.test_case "fuel budget bounds every run" `Quick
            test_tournament_fuel_budget;
        ] );
      ( "single strategy",
        [
          Alcotest.test_case "elide serializes fib" `Quick
            test_single_strategy_elide;
          Alcotest.test_case "isolated inapplicable raises" `Quick
            test_single_strategy_isolated_inapplicable;
          Alcotest.test_case "finish choice matches the driver" `Quick
            test_finish_choice_matches_driver;
        ] );
    ]
