(* Integration tests driving the actual tdrepair binary on the sample
   programs, the way a user would (paper Appendix A workflow). *)

(* Resolve paths relative to this test executable so the tests work both
   under `dune runtest` (cwd = _build test dir) and `dune exec` (cwd =
   workspace root). *)
let here = Filename.dirname Sys.executable_name

let binary = Filename.concat here "../../bin/tdrepair.exe"

let sample name = Filename.concat here ("../../samples/" ^ name)

(* Run the binary; return (exit code, combined output). *)
let run_cli args =
  let out = Filename.temp_file "tdrepair_cli" ".out" in
  let cmd =
    Fmt.str "%s %s > %s 2>&1" (Filename.quote binary)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let contents =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, contents)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let check_contains what output affix =
  if not (contains ~affix output) then
    Alcotest.failf "%s: expected output to contain %S, got:\n%s" what affix
      output

let test_help () =
  let code, out = run_cli [ "--help=plain" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "help" out "tdrepair";
  List.iter (check_contains "help lists command" out)
    [ "detect"; "repair"; "strip"; "elide"; "coverage"; "grade"; "emit" ]

let test_detect_fib () =
  let code, out = run_cli [ "detect"; sample "fib_buggy.mhj" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "detect" out "MRW ESP-bags";
  check_contains "detect" out "race report(s)";
  check_contains "detect finds W->R" out "W->R"

let test_detect_srw_figure5 () =
  let code, out =
    run_cli [ "detect"; sample "figure5.mhj"; "--mode"; "srw" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "srw detect" out "SRW ESP-bags: 2 race report(s)"

let test_repair_roundtrip () =
  let fixed = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code, out =
    run_cli [ "repair"; sample "fib_buggy.mhj"; "-o"; fixed; "-q" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "repair" out "race-free after 1 iteration(s)";
  (* the emitted program must be clean when re-analyzed *)
  let code2, out2 = run_cli [ "detect"; fixed ] in
  Alcotest.(check int) "re-detect exit 0" 0 code2;
  check_contains "re-detect" out2 "0 race report(s)";
  (* and still compute fib correctly *)
  let code3, out3 = run_cli [ "run"; fixed ] in
  Alcotest.(check int) "run exit 0" 0 code3;
  check_contains "fib(12)" out3 "144";
  Sys.remove fixed

let test_repair_incremental () =
  let code, out =
    run_cli
      [ "repair"; sample "pipeline.mhj"; "--placement"; "incremental"; "-q" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "incremental repair" out "race-free"

let test_repair_tournament () =
  (* fib: the missing join; finish must win the tournament. *)
  let code, out =
    run_cli [ "repair"; sample "fib_buggy.mhj"; "--strategy"; "tournament" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "winner line" out "strategy tournament: finish wins";
  check_contains "per-candidate table" out "race-free in";
  (* the winning rewrite is printed and re-detects clean *)
  let fixed = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code1, _ =
    run_cli
      [ "repair"; sample "fib_buggy.mhj"; "--strategy"; "tournament"; "-o";
        fixed; "-q" ]
  in
  Alcotest.(check int) "repair -o exit 0" 0 code1;
  let code2, out2 = run_cli [ "detect"; fixed ] in
  Alcotest.(check int) "repaired detect exit 0" 0 code2;
  check_contains "no races" out2 "0 race report(s)";
  Sys.remove fixed

let test_detect_after_isolated_repair () =
  (* detect must discharge races serialized by isolated sections, so an
     isolated-strategy repair verifies race-free through the CLI too. *)
  let src = Filename.temp_file "tdrepair_cli" ".mhj" in
  let oc = open_out src in
  output_string oc
    {|
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to 3) {
      async { sum[0] = sum[0] + i; }
    }
  }
  print(sum[0]);
}
|};
  close_out oc;
  let fixed = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code, _ =
    run_cli [ "repair"; src; "--strategy"; "isolated"; "-o"; fixed; "-q" ]
  in
  Alcotest.(check int) "isolated repair exit 0" 0 code;
  let code2, out2 = run_cli [ "detect"; fixed ] in
  Alcotest.(check int) "repaired detect exit 0" 0 code2;
  check_contains "no surviving races" out2 "0 race report(s)";
  check_contains "discharge line" out2 "serialized by isolated section(s)";
  Sys.remove src;
  Sys.remove fixed

let test_detect_strategy_preview () =
  let code, out =
    run_cli [ "detect"; sample "fib_buggy.mhj"; "--strategy"; "tournament" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "preview" out "would win"

let test_repair_report () =
  let code, out =
    run_cli [ "repair"; sample "figure5.mhj"; "--report"; "-q" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "report" out "insert finish around";
  check_contains "report" out "dynamic context(s)"

let test_strip_then_repair () =
  let stripped = Filename.temp_file "tdrepair_cli" ".mhj" in
  (* quicksort.mhj has no finishes; fib via emit does *)
  let code, _ = run_cli [ "emit"; "Fibonacci"; "-o"; stripped ] in
  Alcotest.(check int) "emit exit 0" 0 code;
  let stripped2 = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code2, _ = run_cli [ "strip"; stripped; "-o"; stripped2 ] in
  Alcotest.(check int) "strip exit 0" 0 code2;
  let code3, out3 = run_cli [ "detect"; stripped2 ] in
  Alcotest.(check int) "detect exit 0" 0 code3;
  check_contains "stripped fib races" out3 "3193 race report(s)";
  Sys.remove stripped;
  Sys.remove stripped2

let test_elide () =
  let code, out = run_cli [ "elide"; sample "fib_buggy.mhj" ] in
  Alcotest.(check int) "exit 0" 0 code;
  if contains ~affix:"async" out then
    Alcotest.fail "elision must remove asyncs"

let test_run_metrics () =
  let code, out = run_cli [ "run"; sample "quicksort.mhj"; "-p"; "4" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "metrics" out "work (T1)";
  check_contains "metrics" out "critical path (Tinf)";
  check_contains "metrics" out "simulated T_4"

let test_coverage () =
  let code, out = run_cli [ "coverage"; sample "fib_buggy.mhj" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "coverage" out "async coverage"

let test_benchmarks_listing () =
  let code, out = run_cli [ "benchmarks" ] in
  Alcotest.(check int) "exit 0" 0 code;
  List.iter (check_contains "listing" out) [ "Fibonacci"; "Mandelbrot" ]

let test_trace_file () =
  let trc = Filename.temp_file "tdrepair_cli" ".trc" in
  let code, out =
    run_cli [ "detect"; sample "figure5.mhj"; "--race-trace"; trc ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "trace note" out "trace written";
  let ic = open_in trc in
  let first = input_line ic in
  close_in ic;
  Sys.remove trc;
  Alcotest.(check string) "trace magic" "tdrace-trace-v1" first

let test_offline_analyze () =
  let tree = Filename.temp_file "tdrepair_cli" ".tree" in
  let trc = Filename.temp_file "tdrepair_cli" ".trc" in
  let code, _ =
    run_cli
      [ "detect"; sample "fib_buggy.mhj"; "--race-trace"; trc; "--dump-tree";
        tree ]
  in
  Alcotest.(check int) "detect exit 0" 0 code;
  let code2, out2 =
    run_cli
      [ "analyze"; sample "fib_buggy.mhj"; "--tree"; tree; "--race-trace";
        trc; "-q" ]
  in
  Alcotest.(check int) "analyze exit 0" 0 code2;
  check_contains "analyze" out2 "finish statement(s):";
  check_contains "analyze finds the Fig. 15 placement" out2
    "insert finish around lines 13-14";
  Sys.remove tree;
  Sys.remove trc

let test_set_override () =
  (* pipeline.mhj has no int globals to vary, so use figure5 with a new
     global via emit?  Simplest: craft a program on the fly. *)
  let f = Filename.temp_file "tdrepair_cli" ".mhj" in
  let oc = open_out f in
  output_string oc
    "var n: int = 0;\nvar a: int[] = new int[8];\n\
     def main() { for (i = 0 to n - 1) { async { a[i] = i; } } var s: int = \
     0; for (i = 0 to 7) { s = s + a[i]; } print(s); }";
  close_out oc;
  let code, out = run_cli [ "detect"; f ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "n=0 sees nothing" out "0 race report(s)";
  let code2, out2 = run_cli [ "detect"; f; "--set"; "n=4" ] in
  Alcotest.(check int) "exit 0" 0 code2;
  check_contains "n=4 races" out2 "4 race report(s)";
  let code3, out3 = run_cli [ "detect"; f; "--set"; "n=oops" ] in
  Alcotest.(check bool) "bad value rejected" true (code3 <> 0);
  ignore out3;
  Sys.remove f

let test_grade_file () =
  (* quicksort.mhj is racy by design *)
  let code, out = run_cli [ "grade-file"; sample "quicksort.mhj" ] in
  Alcotest.(check int) "racy exit code" 3 code;
  check_contains "racy verdict" out "RACY";
  (* a repaired copy grades optimal *)
  let fixed = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code2, _ =
    run_cli [ "repair"; sample "quicksort.mhj"; "-o"; fixed; "-q" ]
  in
  Alcotest.(check int) "repair ok" 0 code2;
  let code3, out3 = run_cli [ "grade-file"; fixed ] in
  Alcotest.(check int) "optimal exit code" 0 code3;
  check_contains "optimal verdict" out3 "OPTIMAL";
  Sys.remove fixed;
  (* an over-synchronized variant: serialize the recursion *)
  let oversync = Filename.temp_file "tdrepair_cli" ".mhj" in
  let oc = open_out oversync in
  output_string oc
    {|
def work_item(a: int[], i: int) { a[i] = i * i; }
def main() {
  val a: int[] = new int[16];
  for (i = 0 to 15) {
    finish { async { work_item(a, i); } }
  }
  var s: int = 0;
  for (i = 0 to 15) { s = s + a[i]; }
  print(s);
}
|};
  close_out oc;
  let code4, out4 = run_cli [ "grade-file"; oversync ] in
  Alcotest.(check int) "over-synchronized exit code" 4 code4;
  check_contains "oversync verdict" out4 "OVER-SYNCHRONIZED";
  Sys.remove oversync

let test_explain () =
  let code, out = run_cli [ "explain"; sample "figure5.mhj" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "explain" out "S-DPST:";
  check_contains "explain" out "critical path";
  check_contains "explain" out "NS-LCA groups:";
  check_contains "explain" out "suggested repair:"

let test_errors () =
  let code, out = run_cli [ "detect"; sample "fib_buggy.mhj"; "--mode"; "x" ] in
  Alcotest.(check bool) "bad mode rejected" true (code <> 0);
  ignore out;
  let bad = Filename.temp_file "tdrepair_cli" ".mhj" in
  let oc = open_out bad in
  output_string oc "def main() { print(1) }";
  close_out oc;
  let code2, out2 = run_cli [ "parse"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "syntax error -> input-error exit" 3 code2;
  check_contains "located parse diagnostic" out2 "error[parse] at 1:"

let with_tmp_program contents f =
  let path = Filename.temp_file "tdrepair_cli" ".mhj" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Golden renderings of located interpreter diagnostics: every dynamic
   failure of the analyzed program names its stage and source position and
   exits with the input-error code. *)
(* Two isolated sections race on [x]: [detect] discharges all three
   reports by mutual exclusion, so [explain] must suggest no finish. *)
let isolated_pair_src =
  {|var x: int = 0;
def main() {
  finish {
    async { isolated { x = x + 1; } }
    async { isolated { x = x + 2; } }
  }
  print(x);
}
|}

let test_explain_isolated () =
  with_tmp_program isolated_pair_src (fun f ->
      let code, out = run_cli [ "detect"; f ] in
      Alcotest.(check int) "detect exit 0" 0 code;
      check_contains "detect discharges" out "discharged 3 race report(s)";
      List.iter
        (fun backend ->
          let code, out = run_cli [ "explain"; f; "--backend"; backend ] in
          Alcotest.(check int) ("explain exit 0 " ^ backend) 0 code;
          check_contains "explain discharges" out
            "discharged 3 race report(s)";
          if contains ~affix:"insert finish" out then
            Alcotest.failf "explain --backend %s suggests a finish:\n%s"
              backend out)
        [ "espbags"; "vclock" ])

(* grade-file judges race freedom as detect does: the isolated pair's
   three reports are discharged, and the tool's repair of the stripped
   program has the same critical path. *)
let test_grade_file_isolated () =
  with_tmp_program isolated_pair_src (fun f ->
      let code, out = run_cli [ "grade-file"; f ] in
      Alcotest.(check int) "optimal exit code" 0 code;
      check_contains "optimal verdict" out "OPTIMAL")

(* The "insert finish around ..." lines of one output, as a sorted set:
   [explain] prints them bare, [repair --report] with a demand count. *)
let finish_lines out =
  String.split_on_char '\n' out
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if contains ~affix:"insert finish around" l then
           Some
             (match String.index_opt l '(' with
             | Some i -> String.trim (String.sub l 0 i)
             | None -> l)
         else None)
  |> List.sort_uniq compare

(* The first "iteration 1:" block of a [repair --report]. *)
let first_iteration out =
  let lines = String.split_on_char '\n' out in
  let rec skip = function
    | l :: rest when contains ~affix:"iteration 1:" l -> take [] rest
    | _ :: rest -> skip rest
    | [] -> []
  and take acc = function
    | l :: rest when String.length l > 0 && l.[0] = ' ' -> take (l :: acc) rest
    | _ -> List.rev acc
  in
  String.concat "\n" (skip lines)

(* [explain] suggests exactly the finishes [repair]'s first iteration
   inserts: both place the same discharged pair set. *)
let explain_matches_repair what f =
  let code, out = run_cli [ "explain"; f ] in
  Alcotest.(check int) (what ^ ": explain exit 0") 0 code;
  let code', report = run_cli [ "repair"; f; "-q"; "--report" ] in
  if code' <> 0 && code' <> 2 then
    Alcotest.failf "%s: repair exit %d:\n%s" what code' report;
  Alcotest.(check (list string))
    (what ^ ": explain = repair iteration 1")
    (finish_lines (first_iteration report))
    (finish_lines out)

let isolated_mixed_srcs =
  [ isolated_pair_src;
    {|var x: int = 0;
def main() {
  async { isolated { x = x + 1; } }
  async { x = x + 2; }
  print(x);
}
|};
    {|var x: int = 0;
var y: int = 0;
def main() {
  finish {
    async { isolated { x = x + 1; } y = y + 1; }
    async { isolated { x = x + 2; } }
  }
  print(x);
  print(y);
}
|} ]

let test_explain_matches_repair () =
  List.iter
    (fun s -> explain_matches_repair s (sample s))
    [ "fib_buggy.mhj"; "figure5.mhj"; "pipeline.mhj"; "quicksort.mhj";
      "stencil.mhj" ];
  List.iteri
    (fun i src ->
      with_tmp_program src (explain_matches_repair (Fmt.str "isolated %d" i)))
    isolated_mixed_srcs;
  for seed = 1 to 50 do
    with_tmp_program (Benchsuite.Progen.generate ~seed ())
      (explain_matches_repair (Fmt.str "progen %d" seed))
  done;
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      with_tmp_program
        (Mhj.Pretty.program_to_string (Benchsuite.Bench.stripped_program b))
        (explain_matches_repair b.name))
    Benchsuite.Suite.all

let test_located_interp_diagnostics () =
  with_tmp_program "def main() {\n  print(1 / 0);\n}" (fun f ->
      let code, out = run_cli [ "run"; f ] in
      Alcotest.(check int) "div-by-zero input-error exit" 3 code;
      check_contains "div-by-zero" out "error[interp] at 2:11: division by zero");
  with_tmp_program
    "def main() {\n  val a: int[] = new int[2];\n  print(a[5]);\n}"
    (fun f ->
      let code, out = run_cli [ "run"; f ] in
      Alcotest.(check int) "out-of-bounds input-error exit" 3 code;
      check_contains "out-of-bounds" out "error[interp] at 3:";
      check_contains "out-of-bounds" out "out of bounds");
  with_tmp_program "def helper() { print(1); }" (fun f ->
      let code, out = run_cli [ "run"; f ] in
      Alcotest.(check int) "missing main input-error exit" 3 code;
      check_contains "missing main" out "error[typecheck]";
      check_contains "missing main" out "main")

let racy_src =
  "def main() {\n\
  \  val a: int[] = new int[4];\n\
  \  async { a[0] = 1; }\n\
  \  a[0] = 2;\n\
  \  print(a[0]);\n\
   }"

let test_budget_flags () =
  with_tmp_program racy_src (fun f ->
      (* a zero DP budget: still repaired, but degraded -> exit 4 *)
      let code, out = run_cli [ "repair"; f; "-q"; "--budget-dp"; "0" ] in
      Alcotest.(check int) "degraded exit" 4 code;
      check_contains "degradation reported" out "degraded:";
      check_contains "degradation names the fallback" out
        "per-edge intervals";
      (* an unaffordable fuel budget: typed budget diagnostic -> exit 4 *)
      let code2, out2 = run_cli [ "repair"; f; "-q"; "--budget-fuel"; "3" ] in
      Alcotest.(check int) "fuel-exhausted exit" 4 code2;
      check_contains "budget diagnostic" out2 "error[budget]";
      (* generous budgets change nothing *)
      let code3, _ =
        run_cli
          [ "repair"; f; "-q"; "--budget-dp"; "100000000"; "--budget-fuel";
            "100000000"; "--budget-sdpst"; "100000000" ]
      in
      Alcotest.(check int) "affordable budgets exit 0" 0 code3)

(* A budget prune lowers the live node count; the finishes incremental
   placement splices in afterwards must still get ids no live node has
   (stripped LUFact: the splice once reused a pruned id and placement
   failed with an internal error, exit 5). *)
let test_incremental_after_prune () =
  let f = Filename.temp_file "tdrepair_cli" ".mhj" in
  let code, _ = run_cli [ "emit"; "LUFact"; "--size"; "stripped"; "-o"; f ] in
  Alcotest.(check int) "emit exit 0" 0 code;
  let code2, out =
    run_cli
      [ "repair"; f; "-q"; "--placement"; "incremental"; "--budget-sdpst";
        "10" ]
  in
  Sys.remove f;
  (* pruning is a recorded degradation: exit 4, not 5 *)
  Alcotest.(check int) "degraded, not unrepairable" 4 code2;
  check_contains "prune reported" out "degraded:";
  check_contains "repaired" out "race-free"

(* The static analysis layer: lint findings, the lint exit-code contract,
   and the --static-prune / --static-verify integration flags. *)
let test_lint () =
  (* racy program: static-race findings, exit 6 *)
  let code, out = run_cli [ "lint"; sample "figure5.mhj" ] in
  Alcotest.(check int) "findings exit" 6 code;
  check_contains "lint" out "warning[static-race]";
  check_contains "lint" out "finding(s)";
  (* --exit-zero downgrades the exit code but not the findings *)
  let code2, out2 = run_cli [ "lint"; "--exit-zero"; sample "figure5.mhj" ] in
  Alcotest.(check int) "exit-zero" 0 code2;
  check_contains "lint --exit-zero" out2 "warning[static-race]";
  (* a clean, synchronized program: no findings, exit 0 *)
  with_tmp_program
    "var x: int = 0;\ndef main() { finish { async { x = 1; } } print(x); }"
    (fun f ->
      let code3, out3 = run_cli [ "lint"; f ] in
      Alcotest.(check int) "clean exit" 0 code3;
      check_contains "clean lint" out3 "no findings");
  (* redundant finish is reported with its own rule name *)
  with_tmp_program "var x: int = 0;\ndef main() { finish { x = 1; } }"
    (fun f ->
      let code4, out4 = run_cli [ "lint"; f ] in
      Alcotest.(check int) "redundant-finish exit" 6 code4;
      check_contains "redundant finish" out4 "warning[redundant-finish]");
  (* no input at all is an input error, not "no findings" *)
  let code5, _ = run_cli [ "lint" ] in
  Alcotest.(check int) "no input exit" 3 code5

(* The affine refinement's user-visible surface: the stencil sample's
   racy-looking parallel loops are fully discharged (golden output), and
   --explain annotates every surviving pair with the refinement reason. *)
let test_lint_stencil () =
  let code, out = run_cli [ "lint"; sample "stencil.mhj" ] in
  Alcotest.(check int) "notes-only exit" 6 code;
  check_contains "disjoint note" out "info[provably-disjoint]";
  check_contains "note message" out "use affine indices that never collide";
  check_contains "both loops noted" out "2 finding(s)";
  if contains ~affix:"static-race" out then
    Alcotest.fail "stencil must produce no static-race finding";
  (* --explain: surviving pairs carry their refinement-failure reason *)
  let code2, out2 = run_cli [ "lint"; "--explain"; sample "quicksort.mhj" ] in
  Alcotest.(check int) "explain exit" 6 code2;
  check_contains "explain marker" out2 "[unrefined:";
  let code3, out3 = run_cli [ "lint"; sample "quicksort.mhj" ] in
  Alcotest.(check int) "plain exit" 6 code3;
  if contains ~affix:"[unrefined:" out3 then
    Alcotest.fail "reasons must only appear under --explain"

let test_static_verify_stencil () =
  (* the index-sensitive refinement upgrades the stencil to statically
     verified without any repair *)
  let code, out =
    run_cli [ "repair"; "-q"; "--static-verify"; sample "stencil.mhj" ]
  in
  Alcotest.(check int) "verified exit" 0 code;
  check_contains "verdict" out "statically verified: race-free for all inputs"

let test_detect_static_prune () =
  let code, out =
    run_cli [ "detect"; "--static-prune"; sample "figure5.mhj" ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "prune stats" out "statement(s) stay monitored";
  (* the race count matches the unpruned run *)
  check_contains "race set unchanged" out "2 race report(s)";
  (* a program whose sequential part does real work: those accesses are
     skipped, while the race on x is still found *)
  with_tmp_program
    "var x: int = 0;\nvar y: int = 0;\n\
     def main() {\n\
    \  y = 1;\n\
    \  y = y + 1;\n\
    \  async { x = 1; }\n\
    \  x = 2;\n\
    \  print(y);\n\
     }"
    (fun f ->
      let code2, out2 = run_cli [ "detect"; "--static-prune"; f ] in
      Alcotest.(check int) "exit 0" 0 code2;
      check_contains "skipped accesses" out2 "proven sequential";
      check_contains "race still found" out2 "1 race report(s)";
      check_contains "race on x" out2 "W->W race on x")

let test_repair_static_verify () =
  (* figure5 repairs to a program with no unproven MHP pair *)
  let code, out =
    run_cli [ "repair"; "-q"; "--static-verify"; sample "figure5.mhj" ]
  in
  Alcotest.(check int) "verified exit" 0 code;
  check_contains "verdict" out "statically verified: race-free for all inputs";
  (* --static-prune composes with repair and converges to the same result *)
  let code2, out2 =
    run_cli
      [ "repair"; "-q"; "--static-prune"; "--static-verify";
        sample "figure5.mhj" ]
  in
  Alcotest.(check int) "pruned repair exit" 0 code2;
  check_contains "pruned repair" out2 "race-free"

(* ---------------- parallel backend and schedule fuzzing ------------- *)

(* Race-free divide-and-conquer program: every schedule prints 55. *)
let par_fib_src =
  "def fib(n: int, out: int[], i: int) {\n\
  \  if (n < 2) { out[i] = n; return; }\n\
  \  val a: int[] = new int[2];\n\
  \  finish {\n\
  \    async { fib(n - 1, a, 0); }\n\
  \    async { fib(n - 2, a, 1); }\n\
  \  }\n\
  \  out[i] = a[0] + a[1];\n\
   }\n\
   def main() {\n\
  \  val r: int[] = new int[1];\n\
  \  finish { async { fib(10, r, 0); } }\n\
  \  print(r[0]);\n\
   }"

(* Racy accumulator: schedules may lose updates and print differently. *)
let par_racy_src =
  "var sum: int = 0;\n\
   def main() {\n\
  \  val a: int[] = new int[8];\n\
  \  finish {\n\
  \    for (i = 0 to 7) {\n\
  \      async { a[i] = i; sum = sum + i; }\n\
  \    }\n\
  \  }\n\
  \  print(sum);\n\
   }"

let strip_wall_clock out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> not (contains ~affix:"wall-clock" l))
  |> String.concat "\n"

let test_run_par () =
  with_tmp_program par_fib_src (fun f ->
      let code, out = run_cli [ "run"; f; "--par=2"; "--seed"; "3" ] in
      Alcotest.(check int) "exit 0" 0 code;
      check_contains "program output" out "55";
      check_contains "domain count" out "parallel run: 2 domain(s)";
      check_contains "seed echoed" out "seed 3";
      check_contains "task count" out "tasks spawned";
      (* --par with no value picks the host's recommended domain count *)
      let code2, out2 = run_cli [ "run"; f; "--par" ] in
      Alcotest.(check int) "auto exit 0" 0 code2;
      check_contains "auto domains" out2 "domain(s)";
      (* past the runtime's domain cap: a usage error before any domain
         is spawned, not an uncaught Failure exiting 2 *)
      let code3, out3 = run_cli [ "run"; f; "--par"; "129" ] in
      Alcotest.(check int) "129 domains rejected" 124 code3;
      check_contains "domain cap diagnostic" out3 "at most 128")

(* The scheduling simulation needs a processor: 0 and negative counts
   are usage errors, not an uncaught Invalid_argument (exit 125).  So
   are a negative pace and a domain count below 1. *)
let test_run_procs_bounded () =
  with_tmp_program par_fib_src (fun f ->
      List.iter
        (fun (args, why) ->
          let code, out = run_cli ([ "run"; f ] @ args) in
          Alcotest.(check int) (String.concat " " args) 124 code;
          check_contains "diagnostic" out why)
        [ ([ "-p"; "0" ], "must be positive");
          ([ "--procs=-1" ], "must be positive");
          ([ "--pace=-1" ], "must be non-negative");
          ([ "--par=-1" ], "domain count must be positive") ];
      let code, _ = run_cli [ "run"; f; "--procs=1" ] in
      Alcotest.(check int) "one processor" 0 code)

let test_run_par_replay () =
  with_tmp_program par_racy_src (fun f ->
      (* same seed => bit-identical schedule, replayable from the CLI *)
      let c1, o1 = run_cli [ "run"; f; "--par=1"; "--seed"; "5" ] in
      let c2, o2 = run_cli [ "run"; f; "--par=1"; "--seed"; "5" ] in
      Alcotest.(check int) "exit 0" 0 c1;
      Alcotest.(check int) "replay exit 0" 0 c2;
      check_contains "fuzz mode announced" o1 "deterministic fuzz schedule";
      Alcotest.(check string)
        "same seed replays the same run"
        (strip_wall_clock o1) (strip_wall_clock o2);
      (* racy program: fuzzed schedules must expose >1 distinct outcome *)
      let outputs =
        List.init 10 (fun seed ->
            strip_wall_clock
              (snd
                 (run_cli
                    [ "run"; f; "--par=1"; "--seed"; string_of_int seed ])))
      in
      let distinct = List.sort_uniq compare outputs in
      if List.length distinct < 2 then
        Alcotest.failf
          "expected the racy program to diverge across 10 schedules, got \
           only:\n%s"
          (List.hd outputs))

let test_repair_validate_par () =
  with_tmp_program par_racy_src (fun f ->
      let code, out = run_cli [ "repair"; f; "-q"; "--validate-par" ] in
      Alcotest.(check int) "validated exit 0" 0 code;
      check_contains "all schedules ran" out "10/10 fuzzed schedule(s) run";
      check_contains "verdict" out "all match the sequential semantics";
      (* custom schedule count and base seed *)
      let code2, out2 =
        run_cli
          [ "repair"; f; "-q"; "--validate-par=3"; "--validate-seed"; "42" ]
      in
      Alcotest.(check int) "custom K exit 0" 0 code2;
      check_contains "3 schedules" out2 "3/3 fuzzed schedule(s) run";
      (* zero budget: validation deterministically skipped -> degraded *)
      let code3, out3 =
        run_cli
          [ "repair"; f; "-q"; "--validate-par"; "--budget-validate"; "0" ]
      in
      Alcotest.(check int) "degraded exit" 4 code3;
      check_contains "degradation recorded" out3 "degraded:";
      check_contains "skip reported" out3 "skipped under budget")

(* --trace/--metrics: schema-validate the emitted JSON with the same
   Obs.Json parser the files were written with.  The parser preserves
   input key order, so sortedness of the file is directly checkable. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec keys_sorted = function
  | Obs.Json.Obj kvs ->
      let ks = List.map fst kvs in
      ks = List.sort compare ks && List.for_all keys_sorted (List.map snd kvs)
  | Obs.Json.List js -> List.for_all keys_sorted js
  | _ -> true

let test_repair_obs_files () =
  let trace = Filename.temp_file "tdrepair_cli" ".trace.json" in
  let metrics = Filename.temp_file "tdrepair_cli" ".metrics.json" in
  let code, _ =
    run_cli
      [
        "repair"; sample "figure5.mhj"; "-q"; "--trace"; trace; "--metrics";
        metrics;
      ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  (* trace file: Chrome trace format, keys sorted, timestamps monotone,
     one span per pipeline stage *)
  let tj = Obs.Json.of_string (read_file trace) in
  Alcotest.(check bool) "trace keys sorted" true (keys_sorted tj);
  (match Obs.Json.member "displayTimeUnit" tj with
  | Some (Obs.Json.Str "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let events =
    match Obs.Json.member "traceEvents" tj with
    | Some (Obs.Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let ts_of ev =
    match Obs.Json.member "ts" ev with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail "event missing ts"
  in
  let name_of ev =
    match Obs.Json.member "name" ev with
    | Some (Obs.Json.Str s) -> s
    | _ -> Alcotest.fail "event missing name"
  in
  let rec monotone = function
    | a :: b :: tl -> ts_of a <= ts_of b && monotone (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone events);
  let names = List.map name_of events in
  List.iter
    (fun stage ->
      if not (List.mem stage names) then
        Alcotest.failf "trace missing pipeline stage span %S" stage)
    [
      "parse"; "typecheck"; "normalize"; "iteration"; "detect"; "sdpst-build";
      "scopecheck"; "nslca-group"; "depgraph"; "dp-place"; "rewrite";
    ];
  (* metrics file: one flat object of int counters, keys sorted, all
     four subsystems represented *)
  let mj = Obs.Json.of_string (read_file metrics) in
  Alcotest.(check bool) "metrics keys sorted" true (keys_sorted mj);
  (match mj with
  | Obs.Json.Obj kvs ->
      List.iter
        (fun (k, v) ->
          match v with
          | Obs.Json.Int _ -> ()
          | _ -> Alcotest.failf "metrics value for %s is not an int" k)
        kvs
  | _ -> Alcotest.fail "metrics file is not an object");
  let get k =
    match Obs.Json.member k mj with
    | Some (Obs.Json.Int i) -> i
    | _ -> Alcotest.failf "metrics missing key %s" k
  in
  Alcotest.(check bool) "detector counted accesses" true
    (get "detector.accesses" > 0);
  Alcotest.(check int) "two races found" 2 (get "detector.races");
  Alcotest.(check int) "one iteration" 1 (get "driver.iterations");
  Alcotest.(check int) "two finishes" 2 (get "driver.finishes_inserted");
  (* subsystems that did not run are still in the schema, at 0 *)
  Alcotest.(check int) "engine idle" 0 (get "engine.runs");
  Alcotest.(check int) "pruner idle" 0 (get "prune.stmts");
  Sys.remove trace;
  Sys.remove metrics

(* ------------- memory-bounded detection (--shadow-chunk/--spill) ----- *)

let test_shadow_spill_flags () =
  (* both flags are documented on detect and repair *)
  let code, out = run_cli [ "detect"; "--help=plain" ] in
  Alcotest.(check int) "detect help exit 0" 0 code;
  check_contains "detect help" out "--shadow-chunk";
  check_contains "detect help" out "--spill";
  let code2, out2 = run_cli [ "repair"; "--help=plain" ] in
  Alcotest.(check int) "repair help exit 0" 0 code2;
  check_contains "repair help" out2 "--shadow-chunk";
  check_contains "repair help" out2 "--spill";
  (* a tiny chunk size changes memory layout, never the reported races *)
  let code3, out3 =
    run_cli [ "detect"; sample "figure5.mhj"; "--shadow-chunk"; "16" ]
  in
  Alcotest.(check int) "chunked detect exit 0" 0 code3;
  check_contains "chunked races unchanged" out3 "2 race report(s)";
  let code4, out4 =
    run_cli
      [ "detect"; sample "figure5.mhj"; "--backend"; "vclock";
        "--shadow-chunk"; "16" ]
  in
  Alcotest.(check int) "chunked vclock exit 0" 0 code4;
  check_contains "chunked vclock races unchanged" out4 "2 race report(s)";
  (* a spill file that never receives records is removed again *)
  let spill = Filename.temp_file "tdrepair_cli" ".spill" in
  Sys.remove spill;
  let code5, out5 =
    run_cli [ "detect"; sample "figure5.mhj"; "--spill"; spill ]
  in
  Alcotest.(check int) "spill detect exit 0" 0 code5;
  check_contains "spill races unchanged" out5 "2 race report(s)";
  Alcotest.(check bool) "empty spill stub removed" false (Sys.file_exists spill);
  (* usage errors: non-positive or non-integer chunk is a CLI error *)
  let code6, out6 =
    run_cli [ "detect"; sample "figure5.mhj"; "--shadow-chunk"; "0" ]
  in
  Alcotest.(check int) "zero chunk rejected" 124 code6;
  check_contains "zero chunk diagnostic" out6 "chunk size must be positive";
  let code7, out7 =
    run_cli [ "detect"; sample "figure5.mhj"; "--shadow-chunk"; "huge" ]
  in
  Alcotest.(check int) "non-int chunk rejected" 124 code7;
  check_contains "non-int chunk diagnostic" out7 "not an integer";
  (* past the slab tables' maximum: a usage error up front, as for 0, not
     a hang rounding 2^62 up nor an out-of-memory 2^30-slot chunk *)
  List.iter
    (fun n ->
      let code, out =
        run_cli [ "detect"; sample "fib_buggy.mhj"; "--shadow-chunk"; n ]
      in
      Alcotest.(check int) ("chunk " ^ n ^ " rejected") 124 code;
      check_contains ("chunk " ^ n ^ " diagnostic") out
        "chunk size must be at most 1048576")
    [ "1048577"; "1073741824"; "4611686018427387903" ];
  (* an unwritable spill path fails fast with the input-error exit code *)
  let code8, out8 =
    run_cli
      [ "detect"; sample "figure5.mhj"; "--spill";
        "/nonexistent-tdrepair-dir/s.trace" ]
  in
  Alcotest.(check int) "unwritable spill exit" 3 code8;
  check_contains "unwritable spill diagnostic" out8 "error: --spill";
  (* repair accepts both flags and reports the new gauges in --metrics *)
  let metrics = Filename.temp_file "tdrepair_cli" ".metrics.json" in
  let spill2 = Filename.temp_file "tdrepair_cli" ".spill" in
  Sys.remove spill2;
  let code9, out9 =
    run_cli
      [ "repair"; sample "figure5.mhj"; "-q"; "--shadow-chunk"; "32";
        "--spill"; spill2; "--metrics"; metrics ]
  in
  Alcotest.(check int) "chunked repair exit 0" 0 code9;
  check_contains "chunked repair converges" out9 "race-free";
  Alcotest.(check bool) "repair spill stub removed" false
    (Sys.file_exists spill2);
  let mj = Obs.Json.of_string (read_file metrics) in
  let get k =
    match Obs.Json.member k mj with
    | Some (Obs.Json.Int i) -> i
    | _ -> Alcotest.failf "metrics missing key %s" k
  in
  Alcotest.(check bool) "peak RSS gauge set" true
    (get "detector.peak_rss_kb" > 0);
  Alcotest.(check bool) "shadow slab gauge set" true
    (get "detector.shadow_slabs" > 0);
  Alcotest.(check bool) "shadow words gauge set" true
    (get "detector.shadow_words" > 0);
  Alcotest.(check int) "nothing spilled" 0 (get "detector.spilled_races");
  Sys.remove metrics

(* ------------------- detection backend selection -------------------- *)

let test_backend_flag () =
  (* the flag is documented on detect and repair *)
  let code, out = run_cli [ "detect"; "--help=plain" ] in
  Alcotest.(check int) "detect help exit 0" 0 code;
  check_contains "detect help" out "--backend";
  List.iter (check_contains "detect help backends" out)
    [ "espbags"; "vclock"; "auto" ];
  let code2, out2 = run_cli [ "repair"; "--help=plain" ] in
  Alcotest.(check int) "repair help exit 0" 0 code2;
  check_contains "repair help" out2 "--backend";
  (* a bad value is a usage error, not a crash *)
  let code3, out3 =
    run_cli [ "detect"; sample "figure5.mhj"; "--backend"; "bogus" ]
  in
  Alcotest.(check bool) "bad backend rejected" true (code3 <> 0);
  check_contains "bad backend lists choices" out3 "vclock";
  (* vclock reports the same races as the default backend on figure5 *)
  let code4, out4 =
    run_cli [ "detect"; sample "figure5.mhj"; "--backend"; "vclock" ]
  in
  Alcotest.(check int) "vclock detect exit 0" 0 code4;
  check_contains "vclock labeled" out4 "MRW vector-clock: 2 race report(s)";
  (* auto prints its pick and the reason before detecting *)
  let code5, out5 =
    run_cli [ "detect"; sample "figure5.mhj"; "--backend"; "auto" ]
  in
  Alcotest.(check int) "auto detect exit 0" 0 code5;
  check_contains "auto pick reported" out5 "auto backend:";
  check_contains "auto still detects" out5 "2 race report(s)"

let test_repair_backend_metrics () =
  (* a vclock repair converges to the same result and records its
     backend (and clock counters) in the metrics *)
  let metrics = Filename.temp_file "tdrepair_cli" ".metrics.json" in
  let code, out =
    run_cli
      [ "repair"; sample "figure5.mhj"; "-q"; "--backend"; "vclock";
        "--metrics"; metrics ]
  in
  Alcotest.(check int) "vclock repair exit 0" 0 code;
  check_contains "vclock repair converges" out "race-free after 1 iteration(s)";
  let mj = Obs.Json.of_string (read_file metrics) in
  let get k =
    match Obs.Json.member k mj with
    | Some (Obs.Json.Int i) -> i
    | _ -> Alcotest.failf "metrics missing key %s" k
  in
  Alcotest.(check int) "backend recorded as vclock" 1 (get "detector.backend");
  Alcotest.(check int) "two races found" 2 (get "detector.races");
  Alcotest.(check bool) "clock tasks counted" true (get "detector.tasks" > 0);
  Sys.remove metrics;
  (* the default backend records 0 *)
  let metrics2 = Filename.temp_file "tdrepair_cli" ".metrics.json" in
  let code2, _ =
    run_cli [ "repair"; sample "figure5.mhj"; "-q"; "--metrics"; metrics2 ]
  in
  Alcotest.(check int) "default repair exit 0" 0 code2;
  let mj2 = Obs.Json.of_string (read_file metrics2) in
  (match Obs.Json.member "detector.backend" mj2 with
  | Some (Obs.Json.Int 0) -> ()
  | _ -> Alcotest.fail "default backend must record detector.backend = 0");
  Sys.remove metrics2

(* The bench shootout's JSON schema: run `bench detector-quick` on one
   small benchmark, writing into a fresh TDR_BENCH_OUT directory, and
   assert the keys are sorted at every level and the vclock columns are
   present and sane.  The run also exercises the bench's own race-set
   identity assertions (both backends vs the seed). *)
let bench_binary = Filename.concat here "../../bench/main.exe"

let test_bench_detector_quick_json () =
  let dir = Filename.temp_file "tdrepair_cli" ".bench" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let json = Filename.concat dir "BENCH_detector.json" in
  let out_file = Filename.temp_file "tdrepair_cli" ".out" in
  let cmd =
    Fmt.str
      "TDR_BENCH_SUITE=Fibonacci TDR_BENCH_OUT=%s %s detector-quick > %s 2>&1"
      (Filename.quote dir)
      (Filename.quote bench_binary)
      (Filename.quote out_file)
  in
  let code = Sys.command cmd in
  let out = read_file out_file in
  Sys.remove out_file;
  Alcotest.(check int) "bench exit 0" 0 code;
  check_contains "identity line" out "byte-identical to the seed";
  let j = Obs.Json.of_string (read_file json) in
  Sys.remove json;
  Sys.rmdir dir;
  Alcotest.(check bool) "bench keys sorted" true (keys_sorted j);
  let top k =
    match Obs.Json.member k j with
    | Some v -> v
    | None -> Alcotest.failf "bench JSON missing top-level key %s" k
  in
  ignore (top "aggregate_vc_mrw_speedup_vs_seed");
  ignore (top "geomean_vc_mrw_speedup_vs_seed");
  let rows =
    match top "rows" with
    | Obs.Json.List rs -> rs
    | _ -> Alcotest.fail "rows must be a list"
  in
  Alcotest.(check int) "one filtered row" 1 (List.length rows);
  let row = List.hd rows in
  List.iter
    (fun k ->
      match Obs.Json.member k row with
      | Some (Obs.Json.Float f) when f > 0. -> ()
      | Some (Obs.Json.Int i) when i > 0 -> ()
      | Some _ -> Alcotest.failf "bench row key %s not positive" k
      | None -> Alcotest.failf "bench row missing key %s" k)
    [
      "accesses"; "mrw_s"; "ref_mrw_s"; "vc_srw_s"; "vc_mrw_s";
      "vc_mrw_det_accesses_per_s";
    ];
  (* the speedup ratio can legitimately round to 0.000 when the seed's
     detection time hits the noise floor on a loaded machine, so only
     require it present and non-negative *)
  (match Obs.Json.member "vc_mrw_speedup_vs_seed" row with
  | Some (Obs.Json.Float f) when f >= 0. -> ()
  | Some (Obs.Json.Int i) when i >= 0 -> ()
  | Some _ -> Alcotest.fail "bench row key vc_mrw_speedup_vs_seed negative"
  | None -> Alcotest.fail "bench row missing key vc_mrw_speedup_vs_seed")

let test_serve_help () =
  let code, out = run_cli [ "serve"; "--help=plain" ] in
  Alcotest.(check int) "exit 0" 0 code;
  check_contains "serve help" out "Unix-domain socket";
  List.iter (check_contains "serve help lists flag" out)
    [
      "--workers";
      "--queue";
      "--max-frame";
      "--retries";
      "--backoff-ms";
      "--hard-watchdog-ms";
      "--cache";
      "--socket";
    ];
  check_contains "serve help explains shedding" out "overloaded";
  (* the client command is documented too *)
  let code2, out2 = run_cli [ "call"; "--help=plain" ] in
  Alcotest.(check int) "call help exit 0" 0 code2;
  List.iter (check_contains "call help lists flag" out2)
    [ "--health"; "--shutdown"; "--op"; "--id" ]

(* A tournament runs each distinct program once: on fib the input (shared
   by every candidate), finish's repaired program (its converged
   iteration is its verdict), and the one rewrite each of isolated and
   elide verifies.  A runtime error of the input is the same located
   diagnostic as under finish insertion. *)
let test_tournament_detections () =
  let trace = Filename.temp_file "tdrepair_cli" ".trace.json" in
  let code, _ =
    run_cli
      [ "repair"; sample "fib_buggy.mhj"; "-q"; "--strategy"; "tournament";
        "--trace"; trace ]
  in
  Alcotest.(check int) "exit 0" 0 code;
  let events =
    match Obs.Json.member "traceEvents" (Obs.Json.of_string (read_file trace))
    with
    | Some (Obs.Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Sys.remove trace;
  let count name =
    List.length
      (List.filter
         (fun ev -> Obs.Json.member "name" ev = Some (Obs.Json.Str name))
         events)
  in
  Alcotest.(check int) "detect spans" 4 (count "detect");
  Alcotest.(check int) "sdpst-build spans" 4 (count "sdpst-build");
  (* finish runs last: its repair may change the input's S-DPST, which
     the others read *)
  let kinds =
    List.filter_map
      (fun ev ->
        match (Obs.Json.member "name" ev, Obs.Json.member "args" ev) with
        | Some (Obs.Json.Str "candidate"), Some args -> (
            match Obs.Json.member "kind" args with
            | Some (Obs.Json.Int k) -> Some k
            | _ -> Alcotest.fail "candidate span without a kind")
        | _ -> None)
      events
  in
  Alcotest.(check (list int))
    "candidates in run order: isolated, elide, chunk, finish" [ 1; 2; 3; 0 ]
    kinds;
  with_tmp_program
    "def main() {\n\
    \  val a: int[] = new int[1];\n\
    \  async { a[0] = 1; }\n\
    \  a[0] = 2;\n\
    \  print(1 / 0);\n\
     }"
    (fun f ->
      let code, out = run_cli [ "repair"; f; "-q"; "--strategy"; "tournament" ] in
      Alcotest.(check int) "runtime error exit" 3 code;
      check_contains "located diagnostic" out
        "error[interp] at 5:11: division by zero")

(* One --trace of a tournament explains its wall time: on stripped
   Series, the spans cover at least 95% of the trace's extent. *)
let test_tournament_trace_coverage () =
  let src = Filename.temp_file "tdrepair_cli" ".mhj" in
  let stripped = Filename.temp_file "tdrepair_cli" ".mhj" in
  let trace = Filename.temp_file "tdrepair_cli" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; stripped; trace ])
    (fun () ->
      let run args =
        let code, out = run_cli args in
        if code <> 0 then
          Alcotest.failf "%s: exit %d\n%s" (String.concat " " args) code out
      in
      run [ "emit"; "series"; "-o"; src ];
      run [ "strip"; src; "-o"; stripped ];
      run
        [ "repair"; stripped; "-q"; "--strategy"; "tournament"; "--trace";
          trace ];
      let num ev k =
        match Obs.Json.member k ev with
        | Some (Obs.Json.Float f) -> f
        | Some (Obs.Json.Int i) -> float_of_int i
        | _ -> Alcotest.failf "event missing %s" k
      in
      let spans =
        match
          Obs.Json.member "traceEvents" (Obs.Json.of_string (read_file trace))
        with
        | Some (Obs.Json.List evs) ->
            List.map (fun ev -> (num ev "ts", num ev "ts" +. num ev "dur")) evs
        | _ -> Alcotest.fail "traceEvents missing"
      in
      (* events are sorted by start: sweep their union *)
      let covered, _ =
        List.fold_left
          (fun (cov, reach) (a, b) ->
            if b <= reach then (cov, reach)
            else (cov +. b -. Float.max a reach, b))
          (0., neg_infinity) spans
      in
      let lo = List.fold_left (fun m (a, _) -> Float.min m a) infinity spans in
      let hi = List.fold_left (fun m (_, b) -> Float.max m b) 0. spans in
      let share = covered /. (hi -. lo) in
      if share < 0.95 then
        Alcotest.failf "spans cover %.1f%% of the trace extent" (100. *. share))

(* Options a non-finish strategy cannot drop: the fuel budget reaches
   every tournament candidate (exit 4, as for finish), and a static
   verdict or a spill count, which no candidate reports, is an input
   error. *)
let test_strategy_options () =
  with_tmp_program racy_src (fun f ->
      List.iter
        (fun strategy ->
          let code, out =
            run_cli
              [ "repair"; f; "-q"; "--strategy"; strategy; "--budget-fuel";
                "1" ]
          in
          Alcotest.(check int) (strategy ^ " fuel-exhausted exit") 4 code;
          check_contains "budget diagnostic" out "error[budget]")
        [ "finish"; "tournament" ];
      let code, out =
        run_cli
          [ "repair"; f; "-q"; "--strategy"; "tournament"; "--static-verify" ]
      in
      Alcotest.(check int) "tournament --static-verify rejected" 3 code;
      check_contains "names the option" out "static_verify";
      let spill = Filename.temp_file "tdrepair_cli" ".spill" in
      let code2, out2 =
        run_cli
          [ "repair"; f; "-q"; "--strategy"; "isolated"; "--spill"; spill ]
      in
      Sys.remove spill;
      Alcotest.(check int) "isolated --spill rejected" 3 code2;
      check_contains "names the option" out2 "spill")

(* call parses --set as detect does, and a missing daemon is a one-line
   diagnostic with its own exit code. *)
let test_call_errors () =
  let missing = "/nonexistent-tdrepair-dir/tdrepair.sock" in
  let code_d, _ =
    run_cli [ "detect"; sample "fib_buggy.mhj"; "--set"; "n=oops" ]
  in
  let code_c, out_c =
    run_cli
      [ "call"; sample "fib_buggy.mhj"; "--set"; "n=oops"; "--socket"; missing ]
  in
  Alcotest.(check int) "detect --set n=oops" 3 code_d;
  Alcotest.(check int) "call --set n=oops as detect" code_d code_c;
  check_contains "bad override named" out_c "is not an integer";
  let code, out =
    run_cli [ "call"; sample "fib_buggy.mhj"; "--socket"; missing ]
  in
  Alcotest.(check int) "no daemon exit" 7 code;
  Alcotest.(check int) "one line" 1
    (List.length (String.split_on_char '\n' (String.trim out)));
  check_contains "names the socket" out missing

(* The long flags [tdrepair CMD --help=plain] lists, sorted: the option
   lines after the description. *)
let flags_of cmd =
  let code, out = run_cli [ cmd; "--help=plain" ] in
  Alcotest.(check int) (cmd ^ " help exit 0") 0 code;
  let rec options = function
    | l :: rest when not (String.ends_with ~suffix:"OPTIONS" l) -> options rest
    | ls -> ls
  in
  options (String.split_on_char '\n' out)
  |> List.filter (fun l ->
         String.length l > 8 && String.sub l 0 8 = "       -")
  |> List.concat_map (fun l ->
         String.split_on_char ',' (String.trim l)
         |> List.filter_map (fun tok ->
                let tok = String.trim tok in
                if String.length tok > 2 && String.sub tok 0 2 = "--" then
                  let stop =
                    List.fold_left
                      (fun acc c ->
                        match String.index_opt tok c with
                        | Some i -> min acc i
                        | None -> acc)
                      (String.length tok) [ '='; ' '; '[' ]
                  in
                  Some (String.sub tok 0 stop)
                else None))
  |> List.sort_uniq compare

(* Doc-drift guard: every job-option row is a flag of the commands it
   names and a key documented in DESIGN.md §12, and detect and repair
   expose exactly their flag sets. *)
let test_job_flags_documented () =
  let detect = flags_of "detect" and repair = flags_of "repair" in
  let design =
    let ic = open_in_bin (Filename.concat here "../../DESIGN.md") in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let find affix =
      let n = String.length affix in
      let rec go i =
        if String.sub s i n = affix then i else go (i + 1)
      in
      go 0
    in
    let a = find "## 12." in
    String.sub s a (find "## 13." - a)
  in
  List.iter
    (fun (Repair.Options.Field (r, _)) ->
      let flag = "--" ^ Repair.Options.flag_name r in
      List.iter
        (fun cmd ->
          let name, flags =
            match cmd with
            | Repair.Options.Detect -> ("detect", detect)
            | Repair.Options.Repair -> ("repair", repair)
          in
          if not (List.mem flag flags) then
            Alcotest.failf "%s --help lacks %s" name flag)
        r.commands;
      check_contains "DESIGN.md §12 lists the key" design
        ("`" ^ r.key ^ "`"))
    (Repair.Options.fields Repair.Options.default);
  Alcotest.(check (list string)) "detect flags"
    [ "--backend"; "--dump-sdpst"; "--dump-tree"; "--help"; "--mode";
      "--race-trace"; "--set"; "--shadow-chunk"; "--spill"; "--static-prune";
      "--strategy"; "--timeout-ms"; "--version" ]
    detect;
  Alcotest.(check (list string)) "repair flags"
    [ "--backend"; "--budget-dp"; "--budget-fuel"; "--budget-sdpst";
      "--budget-validate"; "--help"; "--metrics"; "--mode"; "--output";
      "--placement"; "--quiet"; "--report"; "--set"; "--shadow-chunk";
      "--spill"; "--static-prune"; "--static-verify"; "--strategy";
      "--timeout-ms"; "--trace"; "--validate-par"; "--validate-seed";
      "--version" ]
    repair

let test_timeout_flag () =
  (* a 1 ms wall-clock budget cannot fit a real repair: the cooperative
     watchdog must fire and the CLI must exit 4 (degraded), same as a
     budget exhaustion *)
  let code, out =
    run_cli [ "repair"; sample "fib_buggy.mhj"; "--timeout-ms"; "1"; "-q" ]
  in
  Alcotest.(check int) "exit 4" 4 code;
  check_contains "timeout diagnosed" out "watchdog";
  (* a generous budget changes nothing *)
  let code2, out2 =
    run_cli
      [ "repair"; sample "fib_buggy.mhj"; "--timeout-ms"; "60000"; "-q" ]
  in
  Alcotest.(check int) "exit 0" 0 code2;
  check_contains "repair still converges" out2 "race-free"

(* Budgets and timeouts are non-negative: a negative value is a usage
   error (exit 124) naming the flag's bound, never a silent run. *)
let test_negative_budgets () =
  List.iter
    (fun flag ->
      let code, out = run_cli [ "repair"; sample "fib_buggy.mhj"; "-q"; flag ] in
      Alcotest.(check int) flag 124 code;
      check_contains flag out "must be non-negative")
    [ "--validate-par=-1"; "--timeout-ms=-5"; "--budget-fuel=-1";
      "--budget-sdpst=-1"; "--budget-dp=-1"; "--budget-validate=-1" ];
  let code, _ =
    run_cli [ "detect"; sample "fib_buggy.mhj"; "--timeout-ms=-5" ]
  in
  Alcotest.(check int) "detect --timeout-ms=-5" 124 code;
  let code, _ =
    run_cli
      [ "repair"; sample "fib_buggy.mhj"; "-q"; "--budget-dp=0";
        "--validate-par=0"; "--timeout-ms=60000" ]
  in
  Alcotest.(check bool) "zero budgets accepted" true (code <> 124)

(* A socket path in a directory that does not exist: a daemon that got
   past parsing would stop at bind, before it starts a worker domain. *)
let missing_socket () =
  let dir = Filename.temp_file "tdrepair_cli" ".missing" in
  Sys.remove dir;
  Filename.concat dir "s.sock"

(* Out-of-range serve flags are usage errors at parse time.  The socket
   sits in a directory that does not exist, so even a daemon that parsed
   them would fail to bind before it starts a worker domain. *)
let test_serve_flags_bounded () =
  let socket = missing_socket () in
  List.iter
    (fun (flag, why) ->
      let code, out = run_cli [ "serve"; flag; "--socket"; socket ] in
      Alcotest.(check int) flag 124 code;
      check_contains flag out why)
    [ ("--workers=129", "must be at most 127");
      ("--workers=128", "must be at most 127");
      ("--workers=0", "must be positive");
      ("--queue=-1", "must be non-negative");
      ("--cache=-1", "must be non-negative");
      ("--retries=-1", "must be non-negative");
      ("--backoff-ms=-1", "must be non-negative");
      ("--max-frame=0", "must be positive");
      ("--hard-watchdog-ms=-1", "must be positive") ]

(* A socket path in a missing directory fails at bind, before any worker
   starts: a located internal diagnostic and exit 1, not an uncaught
   exception. *)
let test_serve_missing_dir () =
  let code, out = run_cli [ "serve"; "--socket"; missing_socket () ] in
  Alcotest.(check int) "internal-error exit" 1 code;
  check_contains "names the call" out "bind";
  check_contains "names the command" out "error[serve]";
  if contains ~affix:"error[detect]" out then
    Alcotest.failf "serve's failure labelled detect:\n%s" out;
  if contains ~affix:"uncaught exception" out then
    Alcotest.failf "serve escaped or_die:\n%s" out

(* ------------------------------------------------------------------ *)
(* The flag table (Options_cli)                                        *)
(* ------------------------------------------------------------------ *)

module Cli = Options_cli
module O = Repair.Options

let subcommands =
  [ "parse"; "run"; "detect"; "analyze"; "repair"; "lint"; "strip"; "elide";
    "coverage"; "grade"; "grade-file"; "explain"; "benchmarks"; "emit";
    "serve"; "call" ]

let long_name (Cli.Any r) =
  List.find (fun n -> String.length n > 1) r.Cli.names

(* The integer rows, with their ranges. *)
let int_rows =
  List.filter_map
    (fun (Cli.Any r as a) ->
      match r.Cli.kind with
      | Cli.Int range | Cli.Int_opt range -> Some (a, range)
      | _ -> None)
    Cli.rows

let in_range { O.lo; hi; _ } n = lo <= n && n <= hi

let boundaries { O.lo; hi; _ } =
  [ 0; -1; lo - 1; lo; hi; hi + 1; max_int; min_int ]

(* Not integers at all; the last is max_int + 1. *)
let junk = [ "x"; "1.5"; "12abc"; ""; "4611686018427387904" ]

(* Whether the row, read through Options_cli.arg, accepts --NAME=VALUE.
   In-process and parse-only: no pool, domain or daemon starts. *)
let accepts (Cli.Any r as a) value =
  let open Cmdliner in
  let cmd = Cmd.v (Cmd.info "t") Term.(const ignore $ Cli.arg r) in
  let argv = [| "t"; Fmt.str "--%s=%s" (long_name a) value |] in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  match Cmd.eval_value ~argv ~err:null ~help:null cmd with
  | Ok (`Ok ()) -> true
  | _ -> false

let test_row_boundaries () =
  Alcotest.(check bool) "integer rows found" true (List.length int_rows >= 19);
  List.iter
    (fun (a, range) ->
      let name = long_name a in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Fmt.str "--%s=%d" name n)
            (in_range range n)
            (accepts a (string_of_int n)))
        (boundaries range);
      List.iter
        (fun v ->
          Alcotest.(check bool) (Fmt.str "--%s=%S" name v) false (accepts a v))
        junk)
    int_rows

let rows_accept_their_range =
  QCheck.Test.make ~name:"every integer row accepts exactly its range"
    ~count:500
    QCheck.(pair (int_bound (List.length int_rows - 1)) int)
    (fun (i, n) ->
      let a, range = List.nth int_rows i in
      accepts a (string_of_int n) = in_range range n)

(* Each integer row, on every command that takes it, exits 124 with the
   converter's message on values outside its range and on junk.  Only
   rejected values run: serve and call get a socket in a missing
   directory, and no in-range value of a pool or daemon flag is tried. *)
let test_rows_reject_out_of_range () =
  let socket = missing_socket () in
  List.iter
    (fun (a, (range : O.range)) ->
      let (Cli.Any r) = a in
      let bad =
        (if range.lo > min_int then [ range.lo - 1 ] else [])
        @ if range.hi < max_int then [ range.hi + 1 ] else []
      in
      let cases =
        ("x", {|"x" is not an integer|})
        :: List.map
             (fun n -> (string_of_int n, Option.get (O.out_of_range range n)))
             bad
      in
      List.iter
        (fun cmd ->
          let prefix =
            match cmd with
            | "serve" | "call" -> [ cmd; "--socket"; socket ]
            | _ -> [ cmd; sample "fib_buggy.mhj" ]
          in
          List.iter
            (fun (v, why) ->
              let flag = Fmt.str "--%s=%s" (long_name a) v in
              let code, out = run_cli (prefix @ [ flag ]) in
              Alcotest.(check int) (cmd ^ " " ^ flag) 124 code;
              check_contains (cmd ^ " " ^ flag) out why)
            cases)
        r.Cli.commands)
    int_rows

(* Every flag a subcommand's help lists is a row naming that subcommand,
   and every row's flag is listed by the subcommands it names. *)
let test_help_flags_are_rows () =
  List.iter
    (fun cmd ->
      let rows =
        List.filter (fun (Cli.Any r) -> List.mem cmd r.Cli.commands) Cli.rows
      in
      let names = List.map (fun a -> "--" ^ long_name a) rows in
      Alcotest.(check int) (cmd ^ ": one row per flag")
        (List.length names)
        (List.length (List.sort_uniq compare names));
      Alcotest.(check (list string))
        (cmd ^ " --help flags are its rows")
        (List.sort compare names)
        (List.filter
           (fun f -> f <> "--help" && f <> "--version")
           (flags_of cmd)))
    subcommands;
  List.iter
    (fun (Cli.Any r) ->
      List.iter
        (fun c ->
          if not (List.mem c subcommands) then
            Alcotest.failf "row --%s names no subcommand %S"
              (List.hd r.Cli.names) c)
        r.Cli.commands)
    Cli.rows

(* --trace FILE means one thing: the Chrome trace of a repair.  The race
   trace file of detect and analyze is --race-trace, and call asks for
   span names with --spans. *)
let test_trace_names_chrome_trace () =
  let traces =
    List.filter (fun (Cli.Any r) -> List.mem "trace" r.Cli.names) Cli.rows
  in
  Alcotest.(check (list (list string)))
    "the rows named trace" [ Cli.Row.chrome_trace.commands ]
    (List.map (fun (Cli.Any r) -> r.Cli.commands) traces);
  match traces with
  | [ Cli.Any r ] ->
      Alcotest.(check string) "its doc" Cli.Row.chrome_trace.doc r.Cli.doc
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* argv fuzz                                                           *)
(* ------------------------------------------------------------------ *)

(* The exit codes the CLI documents: the Exit_code contract (0-7) and
   cmdliner's usage error (124). *)
let documented_exit code = (0 <= code && code <= 7) || code = 124

(* Rows whose accepted values size a pool, start domains or sleep per
   cost unit.  An argv naming one gets a missing input file, so it stops
   at parse time, whatever the value. *)
let pool_rows = [ "par"; "procs"; "pace"; "validate-par" ]

(* Where fuzzed commands write: paths inside it, and in a directory
   missing from it. *)
let fuzz_dir = lazy (Filename.temp_dir "tdrepair_fuzz" "")

(* The argv elements that can give one row a value: in range, at and
   past its bounds, junk, and paths that cannot be written. *)
let row_values (Cli.Any r as a) =
  let dir = Lazy.force fuzz_dir in
  let n = "--" ^ long_name a in
  let eq v = [ n ^ "=" ^ v ] in
  let missing = Filename.concat (Filename.concat dir "missing") "x" in
  match r.Cli.kind with
  | Cli.Flag -> [ [ n ]; eq "x" ]
  | Cli.Enum names ->
      List.map (fun (v, _) -> [ n; v ]) names @ [ [ n; "bogus" ] ]
  | Cli.Int range | Cli.Int_opt range ->
      List.map (fun v -> eq (string_of_int v)) (boundaries range)
      @ List.map eq junk
  | Cli.Text ->
      (* the socket stays in a missing directory: no daemon ever binds *)
      if List.mem "socket" r.Cli.names then [ [ n; missing_socket () ] ]
      else [ [ n; "x" ]; eq "" ]
  | Cli.Path -> [ [ n; Filename.concat dir "out" ]; [ n; missing ]; eq "" ]
  | Cli.File -> [ [ n; sample "fib_buggy.mhj" ]; [ n; missing ] ]
  | Cli.Sets -> List.map (fun v -> [ n; v ]) [ "n=3"; "n=x"; "nosuch=1"; "bad" ]

type fuzz_case = {
  cmd : string;
  picks : (int * int) list;  (** (row, value) indices, taken modulo *)
  repeat : bool;  (** give the first picked flag twice *)
  unknown : bool;  (** add a flag no row declares *)
  input : int;  (** which positional argument *)
}

(* The argv of a case, and whether it may run past parsing. *)
let argv_of c =
  let rows =
    Array.of_list
      (List.filter (fun (Cli.Any r) -> List.mem c.cmd r.Cli.commands) Cli.rows)
  in
  let chosen =
    if rows = [||] then []
    else
      List.map
        (fun (i, v) ->
          let a = rows.(i mod Array.length rows) in
          let vs = row_values a in
          (a, List.nth vs (v mod List.length vs)))
        c.picks
  in
  let parse_only =
    c.cmd = "serve"
    || List.exists (fun (a, _) -> List.mem (long_name a) pool_rows) chosen
  in
  let inputs =
    [ sample "fib_buggy.mhj"; sample "figure5.mhj";
      Filename.concat here "../../DESIGN.md" ]
  in
  let positional =
    match c.cmd with
    | "serve" | "grade" | "benchmarks" -> []
    | "emit" -> [ List.nth [ "fibonacci"; "nosuch" ] (c.input mod 2) ]
    | "lint" | "call" -> if c.input = 0 then [] else [ sample "fib_buggy.mhj" ]
    | _ when parse_only ->
        [ Filename.concat (Lazy.force fuzz_dir) "missing/input.mhj" ]
    | _ -> [ List.nth inputs (c.input mod List.length inputs) ]
  in
  let socket =
    if c.cmd = "serve" || c.cmd = "call" then [ "--socket"; missing_socket () ]
    else []
  in
  let flags = List.concat_map snd chosen in
  let flags =
    match chosen with
    | (_, first) :: _ when c.repeat -> flags @ first
    | _ -> flags
  in
  let flags = if c.unknown then flags @ [ "--no-such-flag" ] else flags in
  ((c.cmd :: positional) @ socket @ flags, parse_only)

let fuzz_case_gen =
  QCheck.Gen.(
    let* cmd = oneofl subcommands in
    let* picks = list_size (int_range 1 4) (pair nat nat) in
    let* repeat = frequencyl [ (4, false); (1, true) ] in
    let* unknown = frequencyl [ (5, false); (1, true) ] in
    let* input = int_bound 2 in
    return { cmd; picks; repeat; unknown; input })

(* No argv makes the CLI exit outside its documented codes, escape an
   exception, or call a bad input an internal error; serve's own bind
   failure (the socket sits in a missing directory) is the one internal
   error expected. *)
let check_argv args =
  let code, out = run_cli args in
  let cmd = List.hd args in
  if not (documented_exit code) then
    Alcotest.failf "%s: undocumented exit %d:\n%s" (String.concat " " args)
      code out;
  List.iter
    (fun bad ->
      if contains ~affix:bad out then
        Alcotest.failf "%s: output says %S:\n%s" (String.concat " " args) bad
          out)
    ([ "uncaught exception"; "Fatal error" ]
    @ if cmd = "serve" then [] else [ "internal error" ])

let argv_fuzz =
  QCheck.Test.make ~name:"fuzzed argv exits within the contract" ~count:150
    (QCheck.make
       ~print:(fun c -> String.concat " " (fst (argv_of c)))
       fuzz_case_gen)
    (fun c ->
      check_argv (fst (argv_of c));
      true)

(* Cases the fuzz found: a path named on the command line that cannot be
   written, or a file that is not the dump it should be, is an input
   error (exit 3), not an internal one. *)
let test_bad_paths_are_input_errors () =
  let missing = "/nonexistent-tdrepair-dir/x" in
  let fib = sample "fib_buggy.mhj" in
  List.iter
    (fun args ->
      let code, out = run_cli args in
      Alcotest.(check int) (String.concat " " args) 3 code;
      check_argv args;
      check_contains (String.concat " " args) out "error:")
    [
      [ "repair"; fib; "-q"; "--trace"; missing ];
      [ "repair"; fib; "-q"; "--metrics"; missing ];
      [ "repair"; fib; "-o"; missing ];
      [ "detect"; fib; "--race-trace"; missing ];
      [ "detect"; fib; "--dump-tree"; missing ];
      [ "strip"; fib; "-o"; missing ];
      [ "emit"; "fibonacci"; "-o"; missing ];
      [ "analyze"; fib; "--tree"; fib; "--race-trace"; fib ];
    ]

let remove_fuzz_dir () =
  if Lazy.is_val fuzz_dir then begin
    let dir = Lazy.force fuzz_dir in
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let () =
  at_exit remove_fuzz_dir;
  Alcotest.run "cli"
    [
      ( "cli",
        [
          Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "detect fib" `Quick test_detect_fib;
          Alcotest.test_case "detect srw figure5" `Quick
            test_detect_srw_figure5;
          Alcotest.test_case "repair round-trip" `Quick test_repair_roundtrip;
          Alcotest.test_case "repair incremental" `Quick
            test_repair_incremental;
          Alcotest.test_case "repair report" `Quick test_repair_report;
          Alcotest.test_case "repair --strategy tournament" `Quick
            test_repair_tournament;
          Alcotest.test_case "tournament detections" `Quick
            test_tournament_detections;
          Alcotest.test_case "tournament trace coverage" `Quick
            test_tournament_trace_coverage;
          Alcotest.test_case "detect --strategy preview" `Quick
            test_detect_strategy_preview;
          Alcotest.test_case "detect after isolated repair" `Quick
            test_detect_after_isolated_repair;
          Alcotest.test_case "emit/strip/detect" `Quick test_strip_then_repair;
          Alcotest.test_case "elide" `Quick test_elide;
          Alcotest.test_case "run metrics" `Quick test_run_metrics;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "benchmark listing" `Quick
            test_benchmarks_listing;
          Alcotest.test_case "trace file" `Quick test_trace_file;
          Alcotest.test_case "offline analyze" `Quick test_offline_analyze;
          Alcotest.test_case "--set override" `Quick test_set_override;
          Alcotest.test_case "grade-file" `Quick test_grade_file;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain discharges isolated" `Quick
            test_explain_isolated;
          Alcotest.test_case "grade-file discharges isolated" `Quick
            test_grade_file_isolated;
          Alcotest.test_case "explain = repair iteration 1" `Quick
            test_explain_matches_repair;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "located interp diagnostics" `Quick
            test_located_interp_diagnostics;
          Alcotest.test_case "budget flags" `Quick test_budget_flags;
          Alcotest.test_case "incremental after prune" `Quick
            test_incremental_after_prune;
          Alcotest.test_case "lint" `Quick test_lint;
          Alcotest.test_case "lint stencil" `Quick test_lint_stencil;
          Alcotest.test_case "stencil --static-verify" `Quick
            test_static_verify_stencil;
          Alcotest.test_case "detect --static-prune" `Quick
            test_detect_static_prune;
          Alcotest.test_case "repair --static-verify" `Quick
            test_repair_static_verify;
          Alcotest.test_case "run --par" `Quick test_run_par;
          Alcotest.test_case "run -p bounded" `Quick test_run_procs_bounded;
          Alcotest.test_case "run --par replay" `Quick test_run_par_replay;
          Alcotest.test_case "repair --validate-par" `Quick
            test_repair_validate_par;
          Alcotest.test_case "repair --trace/--metrics" `Quick
            test_repair_obs_files;
          Alcotest.test_case "--shadow-chunk/--spill" `Quick
            test_shadow_spill_flags;
          Alcotest.test_case "--backend flag" `Quick test_backend_flag;
          Alcotest.test_case "repair --backend metrics" `Quick
            test_repair_backend_metrics;
          Alcotest.test_case "bench detector-quick JSON" `Quick
            test_bench_detector_quick_json;
          Alcotest.test_case "serve/call --help" `Quick test_serve_help;
          Alcotest.test_case "serve flags bounded" `Quick
            test_serve_flags_bounded;
          Alcotest.test_case "serve socket in missing dir" `Quick
            test_serve_missing_dir;
          Alcotest.test_case "flag rows: boundaries" `Quick
            test_row_boundaries;
          QCheck_alcotest.to_alcotest rows_accept_their_range;
          Alcotest.test_case "flag rows: out of range exits 124" `Quick
            test_rows_reject_out_of_range;
          Alcotest.test_case "flag rows: every --help flag is a row" `Quick
            test_help_flags_are_rows;
          Alcotest.test_case "flag rows: trace is the Chrome trace" `Quick
            test_trace_names_chrome_trace;
          Alcotest.test_case "--timeout-ms" `Quick test_timeout_flag;
          Alcotest.test_case "negative budgets" `Quick test_negative_budgets;
          Alcotest.test_case "strategy options" `Quick test_strategy_options;
          Alcotest.test_case "call errors" `Quick test_call_errors;
          Alcotest.test_case "job flags documented" `Quick
            test_job_flags_documented;
          Alcotest.test_case "bad paths are input errors" `Quick
            test_bad_paths_are_input_errors;
          QCheck_alcotest.to_alcotest argv_fuzz;
        ] );
    ]
