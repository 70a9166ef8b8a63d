(* Tests for the instrumented depth-first interpreter. *)

let run src = Rt.Interp.run (Mhj.Front.compile src)

let output src = String.trim (run src).output

let test_arith () =
  Alcotest.(check string) "int ops" "17" (output "def main() { print(3 + 2 * 7); }");
  Alcotest.(check string) "division truncates" "2" (output "def main() { print(7 / 3); }");
  Alcotest.(check string) "mod" "1" (output "def main() { print(7 % 3); }");
  Alcotest.(check string) "neg" "-4" (output "def main() { print(-4); }");
  Alcotest.(check string)
    "float" "3.5"
    (output "def main() { print(1.5 + 2.0); }");
  Alcotest.(check string)
    "comparison chain" "true"
    (output "def main() { print(1 < 2 && 2 <= 2 && !(3 > 4) || false); }")

let test_short_circuit () =
  (* && must not evaluate its right operand when the left is false: the
     right operand here would divide by zero. *)
  Alcotest.(check string) "and" "false"
    (output "def main() { print(false && 1 / 0 == 0); }");
  Alcotest.(check string) "or" "true"
    (output "def main() { print(true || 1 / 0 == 0); }")

let test_control_flow () =
  Alcotest.(check string) "if/else" "b"
    (output
       {|def main() { if (1 > 2) { print("a"); } else { print("b"); } }|});
  Alcotest.(check string) "while" "10"
    (output
       "def main() { var s: int = 0; var i: int = 0; while (i < 5) { s = s + \
        i; i = i + 1; } print(s); }");
  Alcotest.(check string) "for with step" "9"
    (output
       "def main() { var s: int = 0; for (i = 1 to 5 by 2) { s = s + i; } \
        print(s); }");
  Alcotest.(check string) "for downward" "6"
    (output
       "def main() { var s: int = 0; for (i = 3 to 1 by -1) { s = s + i; } \
        print(s); }")

let test_functions () =
  Alcotest.(check string) "recursion" "120"
    (output
       {|
def fact(n: int): int {
  if (n <= 1) { return 1; }
  return n * fact(n - 1);
}
def main() { print(fact(5)); }
|});
  Alcotest.(check string) "call in expression" "12"
    (output
       {|
def twice(n: int): int { return 2 * n; }
def main() { print(twice(2) + twice(4)); }
|})

let test_arrays () =
  Alcotest.(check string) "1d" "7"
    (output
       "def main() { val a: int[] = new int[3]; a[1] = 7; print(a[1]); }");
  Alcotest.(check string) "zero-init" "0"
    (output "def main() { val a: int[] = new int[3]; print(a[2]); }");
  Alcotest.(check string) "2d" "9"
    (output
       "def main() { val g: int[][] = new int[2][3]; g[1][2] = 9; \
        print(g[1][2]); }");
  Alcotest.(check string) "alen" "5"
    (output "def main() { val a: int[] = new int[5]; print(alen(a)); }");
  Alcotest.(check string) "aliasing" "3"
    (output
       "def main() { val a: int[] = new int[1]; val b: int[] = a; b[0] = 3; \
        print(a[0]); }")

let test_globals () =
  Alcotest.(check string) "global init order" "11"
    (output "var g: int = 10;\ndef main() { g = g + 1; print(g); }")

let test_builtins () =
  Alcotest.(check string) "float conv" "2.5"
    (output "def main() { print(float(5) / 2.0); }");
  Alcotest.(check string) "int conv" "2"
    (output "def main() { print(int(2.9)); }");
  Alcotest.(check string) "sqrt" "3"
    (output "def main() { print(int(sqrt(9.0))); }");
  Alcotest.(check string) "cas success" "true"
    (output
       "def main() { val a: int[] = new int[1]; print(cas(a, 0, 0, 5)); }");
  Alcotest.(check string) "cas failure leaves value" "0"
    (output
       "def main() { val a: int[] = new int[1]; val ok: bool = cas(a, 0, 3, \
        5); print(a[0]); }")

let test_async_depth_first () =
  (* The sequential depth-first execution runs async bodies at their spawn
     point, so output order matches the serial elision. *)
  Alcotest.(check string) "df order" "1\n2\n3"
    (output
       "def main() { print(1); async { print(2); } print(3); }")

let test_numeric_builtins () =
  let approx name expected src =
    let got = float_of_string (output src) in
    if abs_float (got -. expected) > 1e-5 then
      Alcotest.failf "%s: expected %f, got %f" name expected got
  in
  approx "sin" 0.0 "def main() { print(sin(0.0)); }";
  approx "cos" 1.0 "def main() { print(cos(0.0)); }";
  approx "pow" 8.0 "def main() { print(pow(2.0, 3.0)); }";
  approx "exp(log x)" 5.0 "def main() { print(exp(log(5.0))); }";
  approx "fabs" 2.5 "def main() { print(fabs(0.0 - 2.5)); }";
  approx "sqrt" 1.41421 "def main() { print(sqrt(2.0)); }"

let test_call_in_expression_context () =
  (* a call mid-expression splits the enclosing step around a scope node *)
  let res =
    run
      {|
def g(): int { return 21; }
def main() { val x: int = g() + g(); print(x); }
|}
  in
  Alcotest.(check string) "value" "42" (String.trim res.output);
  let _, _, scopes, _ = Sdpst.Node.count_by_kind res.tree in
  Alcotest.(check int) "two call scopes" 2 scopes

let test_arrays_by_reference () =
  Alcotest.(check string) "callee mutates caller's array" "9"
    (output
       {|
def set(a: int[], i: int, v: int) { a[i] = v; }
def main() { val a: int[] = new int[3]; set(a, 1, 9); print(a[1]); }
|})

let test_return_from_nested_blocks () =
  Alcotest.(check string) "return exits through blocks and loops" "3"
    (output
       {|
def find(a: int[], v: int): int {
  for (i = 0 to alen(a) - 1) {
    if (a[i] == v) {
      return i;
    }
  }
  return 0 - 1;
}
def main() {
  val a: int[] = new int[5];
  a[3] = 7;
  print(find(a, 7));
}
|})

let test_cas_bounds () =
  match
    run "def main() { val a: int[] = new int[1]; print(cas(a, 5, 0, 1)); }"
  with
  | exception Rt.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "cas out of bounds must fail"

let test_runtime_errors () =
  let fails src =
    match run src with
    | exception Rt.Interp.Runtime_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "div by zero" true (fails "def main() { print(1 / 0); }");
  Alcotest.(check bool) "mod by zero" true (fails "def main() { print(1 % 0); }");
  Alcotest.(check bool) "index oob" true
    (fails "def main() { val a: int[] = new int[2]; print(a[2]); }");
  Alcotest.(check bool) "negative index" true
    (fails "def main() { val a: int[] = new int[2]; print(a[0 - 1]); }");
  Alcotest.(check bool) "negative dimension" true
    (fails "def main() { val a: int[] = new int[0 - 3]; print(0); }");
  Alcotest.(check bool) "zero for step" true
    (fails "def main() { for (i = 0 to 1 by 0) { print(i); } }")

let test_fuel () =
  match
    Rt.Interp.run ~fuel:1000
      (Mhj.Front.compile "def main() { while (true) { work(10); } }")
  with
  | exception Rt.Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected Out_of_fuel"

let test_work_builtin () =
  let r1 = run "def main() { work(100); }" in
  let r2 = run "def main() { work(200); }" in
  Alcotest.(check int) "work difference" 100 (r2.work - r1.work)

let test_determinism () =
  let src = Benchsuite.Progen.generate ~seed:99 () in
  let a = run src and b = run src in
  Alcotest.(check string) "same output" a.output b.output;
  Alcotest.(check int) "same work" a.work b.work;
  Alcotest.(check int) "same tree size" a.tree.Sdpst.Node.n_nodes
    b.tree.Sdpst.Node.n_nodes

let test_elision_equivalence () =
  (* async/finish do not change sequential semantics. *)
  List.iter
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = Mhj.Front.compile src in
      let par = Rt.Interp.run prog in
      let ser = Rt.Interp.run_elision prog in
      Alcotest.(check string)
        (Fmt.str "seed %d output" seed)
        ser.output par.output)
    [ 1; 2; 3; 4; 5 ]

let test_unnormalized_rejected () =
  let p = Mhj.Parser.parse_program "def main() { if (true) print(1); }" in
  match Rt.Interp.run p with
  | exception Rt.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unnormalized program must be rejected"

let test_missing_main_rejected () =
  let p = Mhj.Front.compile ~require_main:false "def helper() { print(1); }" in
  match Rt.Interp.run p with
  | exception Rt.Interp.Runtime_error (m, _) ->
      Alcotest.(check bool) "mentions main" true
        (let affix = "main" in
         let n = String.length affix and len = String.length m in
         let rec go i = i + n <= len && (String.sub m i n = affix || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "program without main must be rejected"

(* ------------------------------------------------------------------ *)
(* Name resolution and the slot-frame evaluator                        *)
(* ------------------------------------------------------------------ *)

(* Monitored accesses of a run, as (interned address, kind) pairs. *)
let accesses src =
  let acc = ref [] in
  let monitor =
    {
      Rt.Monitor.nop with
      on_access = (fun ~step:_ ~bid:_ ~idx:_ a k -> acc := (a, k) :: !acc);
    }
  in
  let r = Rt.Interp.run ~monitor (Mhj.Front.compile src) in
  (String.trim r.output, List.rev !acc)

let test_local_shadows_global () =
  let out, acc =
    accesses "var x: int = 5; def main() { var x: int = 1; x = x + 1; print(x); }"
  in
  Alcotest.(check string) "local value" "2" out;
  Alcotest.(check int) "no global access reported" 0 (List.length acc);
  let out, acc =
    accesses "var x: int = 5; def main() { x = x + 1; print(x); }"
  in
  Alcotest.(check string) "global value" "6" out;
  Alcotest.(check int) "global read, write, read" 3 (List.length acc)

let test_nested_shadowing () =
  Alcotest.(check string) "inner then outer" "2\n1"
    (output "def main() { val x: int = 1; { val x: int = 2; print(x); } print(x); }");
  (* after the block, [x] is the global again: only those reads reach
     the monitor *)
  let out, acc =
    accesses
      "var x: int = 7; def main() { { val x: int = 2; print(x); } print(x); }"
  in
  Alcotest.(check string) "block local, then global" "2\n7" out;
  Alcotest.(check int) "one global read" 1 (List.length acc);
  Alcotest.(check string) "sibling blocks reuse slots" "3\n4"
    (output
       "def main() { { val a: int = 3; print(a); } { val b: int = 4; print(b); } }")

let test_for_variables () =
  Alcotest.(check string) "nested induction variables" "0\n1\n10\n11"
    (output
       "def main() { for (i = 0 to 1) { for (j = 0 to 1) { print(i * 10 + j); } } }");
  let out, acc =
    accesses
      "var i: int = 42; def main() { for (i = 0 to 1) { print(i); } print(i); }"
  in
  Alcotest.(check string) "loop variable shadows the global" "0\n1\n42" out;
  Alcotest.(check int) "only the final read is global" 1 (List.length acc);
  Alcotest.(check string) "a body declaration shadows the loop variable" "5\n5"
    (output "def main() { for (i = 0 to 1) { val i: int = 5; print(i); } }")

let test_recursion_fresh_frames () =
  Alcotest.(check string) "each call keeps its own locals" "60"
    (output
       {|
def f(n: int): int {
  val mine: int = n;
  if (n > 0) {
    val r: int = f(n - 1);
    return mine * 10 + r;
  }
  return mine;
}
def main() { print(f(3)); }
|})

(* A deferred task must see the outer [val]s as they were at its spawn,
   even though the next iteration reuses their frame slots. *)
let test_deferred_async_snapshot () =
  let prog =
    Mhj.Front.compile
      {|
var out: int[] = new int[4];
def main() {
  finish {
    for (i = 0 to 3) {
      val v: int = i * 10;
      async { out[i] = v + i; }
    }
  }
  print(out[0]); print(out[1]); print(out[2]); print(out[3]);
}
|}
  in
  let r =
    Par.Engine.run
      ~policy:{ Par.Engine.inline_pct = 0; yield_pct = 0 }
      ~mode:(Par.Engine.Fuzz { seed = 1 })
      prog
  in
  Alcotest.(check string) "values at spawn" "0\n11\n22\n33" (String.trim r.output);
  Alcotest.(check string) "same as depth-first"
    (Rt.Interp.run prog).output r.output

(* [return] from inside nested scopes unwinds straight to the call: the
   S-DPST parent and the (block, index) cursor are those of the call
   site, so the step the rest of the call statement opens hangs off the
   caller's node and its accesses carry the caller's positions. *)
let test_return_restores_cursor () =
  let prog =
    Mhj.Front.compile
      {|
var g: int = 0;
def f(): int {
  for (i = 0 to 3) {
    { if (i == 1) { return i; } }
  }
  return 0;
}
def main() {
  var x: int = 0;
  x = f() + 1;
  g = x + 1;
}
|}
  in
  let main = Option.get (Mhj.Ast.find_func prog "main") in
  let last = ref [] in
  let monitor =
    {
      Rt.Monitor.nop with
      on_access =
        (fun ~step ~bid ~idx _ _ -> last := (step, bid, idx) :: !last);
    }
  in
  let r = Rt.Interp.run ~monitor prog in
  let t = r.tree in
  let module N = Sdpst.Node in
  let step = N.fold_children t (fun _ c -> c) N.none N.root in
  let call = N.prev_sibling t step in
  Alcotest.(check string) "call node under the root" "call:f"
    (N.kind_name (N.kind t call));
  Alcotest.(check bool) "resumed step is the root's child" true
    (N.is_step t step && N.parent t step = N.root);
  Alcotest.(check (pair int int)) "step origin is the call statement"
    (main.body.bid, 1) (N.origin_bid t step, N.origin_idx t step);
  Alcotest.(check int) "step covers the next statement" 2 (N.last_idx t step);
  match !last with
  | (s, bid, idx) :: _ ->
      Alcotest.(check bool) "write reported on the resumed step" true (s = step);
      Alcotest.(check (pair int int)) "write position" (main.body.bid, 2)
        (bid, idx)
  | [] -> Alcotest.fail "no access reported"

(* Runtime errors keep their messages and source locations.  [typed]
   programs go through the front end; the others skip type checking to
   reach the evaluator's dynamic checks. *)
let test_error_messages () =
  List.iter
    (fun (name, typed, src, msg, loc) ->
      let p =
        if typed then Mhj.Front.compile src
        else Mhj.Normalize.normalize (Mhj.Parser.parse_program src)
      in
      match Rt.Interp.run p with
      | exception Rt.Interp.Runtime_error (m, l) ->
          Alcotest.(check (pair string string)) name (msg, loc)
            (m, Mhj.Loc.to_string l)
      | _ -> Alcotest.failf "%s: no error" name)
    [
      ("bounds", true, "def main() {\n  val a: int[] = new int[2];\n  print(a[2]);\n}",
       "index 2 out of bounds [0..2)", "3:10");
      ("store bounds", true,
       "def main() {\n  val a: int[][] = new int[2][3];\n  a[1][3] = 4;\n}",
       "index 3 out of bounds [0..3)", "3:3");
      ("div", true, "def main() {\n  val z: int = 0;\n  print(7 / z);\n}",
       "division by zero", "3:11");
      ("mod", true, "def main() {\n  print(7 % (1 - 1));\n}", "modulo by zero",
       "2:11");
      ("negative dimension", true, "def main() {\n  val a: int[] = new int[0 - 3];\n}",
       "negative array dimension -3", "2:18");
      ("for step", true, "def main() {\n  for (i = 0 to 3 by 0) { print(i); }\n}",
       "for step must be non-zero", "2:3");
      ("work", true, "def main() {\n  work(0 - 1);\n}", "work(-1): negative amount",
       "2:3");
      ("cas", true,
       "def main() {\n  val a: int[] = new int[1];\n  print(cas(a, 5, 0, 1));\n}",
       "cas: index 5 out of bounds [0..1)", "3:9");
      ("global initializer order", true,
       "var a: int = b + 1;\nvar b: int = 2;\ndef main() { print(a); }",
       "unbound variable 'b'", "1:14");
      ("global initializer order via a call", true,
       "var a: int = f();\nvar b: int = 2;\ndef f(): int { b = 3; return 1; }\n\
        def main() { print(a); }",
       "unbound variable 'b'", "3:16");
      ("operand types", false, "def main() {\n  print(1 + true);\n}",
       "operator '+' applied to 1 and true", "2:11");
      ("int expected", false,
       "def main() {\n  val a: int[] = new int[2];\n  print(a[false]);\n}",
       "expected int, got false", "3:11");
      ("bool expected", false, "def main() {\n  if (3) { print(1); }\n}",
       "expected bool, got 3", "2:7");
      ("array expected", false, "def main() {\n  val a: int = 3;\n  print(a[0]);\n}",
       "expected array, got 3", "3:9");
      ("unary", false, "def main() {\n  print(-true);\n}",
       "unary '-' applied to true", "2:9");
      ("unbound read", false, "def main() {\n  print(zz);\n}",
       "unbound variable 'zz'", "2:9");
      ("unbound store", false, "def main() {\n  zz = 1;\n}",
       "unbound variable 'zz'", "2:3");
      ("unknown function", false, "def main() {\n  print(g(1));\n}",
       "unknown function 'g'", "2:9");
      ("builtin arguments", false, "def main() {\n  print(sqrt(1));\n}",
       "builtin 'sqrt' applied to (1)", "2:9");
    ]

let () =
  Alcotest.run "interp"
    [
      ( "eval",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "builtins" `Quick test_builtins;
          Alcotest.test_case "numeric builtins" `Quick test_numeric_builtins;
          Alcotest.test_case "call in expression" `Quick
            test_call_in_expression_context;
          Alcotest.test_case "arrays by reference" `Quick
            test_arrays_by_reference;
          Alcotest.test_case "return from nesting" `Quick
            test_return_from_nested_blocks;
          Alcotest.test_case "cas bounds" `Quick test_cas_bounds;
        ] );
      ( "execution",
        [
          Alcotest.test_case "depth-first order" `Quick test_async_depth_first;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "work builtin" `Quick test_work_builtin;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "elision equivalence" `Quick
            test_elision_equivalence;
          Alcotest.test_case "normalization required" `Quick
            test_unnormalized_rejected;
          Alcotest.test_case "missing main rejected" `Quick
            test_missing_main_rejected;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "local shadows global" `Quick
            test_local_shadows_global;
          Alcotest.test_case "nested-block shadowing" `Quick
            test_nested_shadowing;
          Alcotest.test_case "for-loop variables" `Quick test_for_variables;
          Alcotest.test_case "recursion gets fresh frames" `Quick
            test_recursion_fresh_frames;
          Alcotest.test_case "deferred async sees spawn-time vals" `Quick
            test_deferred_async_snapshot;
          Alcotest.test_case "return restores parent and cursor" `Quick
            test_return_restores_cursor;
          Alcotest.test_case "error messages and locations" `Quick
            test_error_messages;
        ] );
    ]
