(* Tests for the Mini-HJ front end: lexer, parser, pretty-printer,
   type checker, normalization and the AST transforms. *)

open Mhj

let compile = Front.compile

let compile_nomain src = Front.compile ~require_main:false src

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens src =
  Array.to_list (Lexer.tokenize src) |> List.map fst
  |> List.filter (fun t -> t <> Token.EOF)

let test_lexer_basics () =
  Alcotest.(check (list string))
    "operators"
    [ "=="; "!="; "<="; ">="; "&&"; "||"; "="; "<"; ">"; "!" ]
    (List.map Token.to_string (tokens "== != <= >= && || = < > !"));
  Alcotest.(check (list string))
    "numbers and idents"
    [ "42"; "3.5"; "x_1"; "async" ]
    (List.map Token.to_string (tokens "42 3.5 x_1 async"))

let test_lexer_comments () =
  Alcotest.(check int) "line comment" 2
    (List.length (tokens "a // comment with stuff\n b"));
  Alcotest.(check int) "block comment" 2
    (List.length (tokens "a /* multi\nline */ b"))

let test_lexer_string () =
  match tokens {|"hi\nthere"|} with
  | [ Token.STRING s ] -> Alcotest.(check string) "escape" "hi\nthere" s
  | _ -> Alcotest.fail "expected one string token"

let test_lexer_errors () =
  let lex_fails s =
    match Lexer.tokenize s with
    | exception Lexer.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad char" true (lex_fails "a # b");
  Alcotest.(check bool) "unterminated string" true (lex_fails {|"abc|});
  Alcotest.(check bool) "unterminated comment" true (lex_fails "/* abc")

let test_lexer_locations () =
  let toks = Lexer.tokenize "a\n  b" in
  let _, loc_b = toks.(1) in
  Alcotest.(check int) "line" 2 loc_b.Loc.line;
  Alcotest.(check int) "col" 3 loc_b.Loc.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_precedence () =
  let expr_of src =
    let p = compile_nomain (Fmt.str "def f(): int { return %s; }" src) in
    match (List.hd p.Ast.funcs).body.stmts with
    | [ { s = Ast.Return (Some e); _ } ] -> Pretty.expr_to_string e
    | _ -> Alcotest.fail "unexpected structure"
  in
  Alcotest.(check string) "mul binds tighter" "1 + 2 * 3" (expr_of "1 + 2*3");
  Alcotest.(check string)
    "parens preserved where needed" "(1 + 2) * 3"
    (expr_of "(1 + 2) * 3");
  Alcotest.(check string)
    "left assoc subtraction" "1 - 2 - 3" (expr_of "1 - 2 - 3");
  Alcotest.(check string)
    "right operand parenthesized" "1 - (2 - 3)" (expr_of "1 - (2 - 3)")

let test_parser_structure () =
  let p =
    compile
      {|
def main() {
  var x: int = 0;
  if (x < 1) { x = 1; } else { x = 2; }
  while (x > 0) { x = x - 1; }
  for (i = 0 to 3 by 2) { x = x + i; }
  val a: int[] = new int[1];
  finish { async { a[0] = 5; } }
  print(a[0]);
}
|}
  in
  Alcotest.(check int) "one function" 1 (List.length p.funcs);
  Alcotest.(check int) "asyncs" 1 (Ast.count_asyncs p);
  Alcotest.(check int) "finishes" 1 (Ast.count_finishes p)

let test_parser_errors () =
  let fails src =
    match Parser.parse_program src with
    | exception Parser.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing semi" true (fails "def main() { print(1) }");
  Alcotest.(check bool) "bad lvalue" true (fails "def main() { 1 = 2; }");
  Alcotest.(check bool) "unclosed block" true (fails "def main() {");
  Alcotest.(check bool) "top-level junk" true (fails "print(1);")

let test_forasync_sugar () =
  (* forasync desugars to a for loop whose body spawns an async *)
  let p =
    compile
      "var a: int[] = new int[4];\n\
       def main() { finish { forasync (i = 0 to 3) { a[i] = i; } } }"
  in
  let q =
    compile
      "var a: int[] = new int[4];\n\
       def main() { finish { for (i = 0 to 3) { async { a[i] = i; } } } }"
  in
  Alcotest.(check int) "one async" 1 (Ast.count_asyncs p);
  let sk prog = Sdpst.Serial.skeleton (Rt.Interp.run prog).tree in
  Alcotest.(check string) "same dynamic structure" (sk q) (sk p)

let test_parser_multidim () =
  let p =
    compile
      {|
def main() {
  val g: float[][] = new float[3][4];
  g[1][2] = 5.0;
  print(g[1][2]);
}
|}
  in
  Alcotest.(check int) "parses" 1 (List.length p.funcs)

(* ------------------------------------------------------------------ *)
(* Pretty round-trip                                                   *)
(* ------------------------------------------------------------------ *)

(* Structural equality modulo ids and locations. *)
let rec eq_expr (a : Ast.expr) (b : Ast.expr) =
  match (a.e, b.e) with
  | Ast.Int x, Ast.Int y -> x = y
  | Ast.Float x, Ast.Float y -> x = y
  | Ast.Bool x, Ast.Bool y -> x = y
  | Ast.Str x, Ast.Str y -> x = y
  | Ast.Var x, Ast.Var y -> x = y
  | Ast.Bin (o1, a1, b1), Ast.Bin (o2, a2, b2) ->
      o1 = o2 && eq_expr a1 a2 && eq_expr b1 b2
  | Ast.Un (o1, a1), Ast.Un (o2, a2) -> o1 = o2 && eq_expr a1 a2
  | Ast.Idx (a1, i1), Ast.Idx (a2, i2) -> eq_expr a1 a2 && eq_expr i1 i2
  | Ast.Call (f1, l1), Ast.Call (f2, l2) ->
      f1 = f2 && List.length l1 = List.length l2 && List.for_all2 eq_expr l1 l2
  | Ast.NewArr (t1, d1), Ast.NewArr (t2, d2) ->
      Ast.equal_ty t1 t2
      && List.length d1 = List.length d2
      && List.for_all2 eq_expr d1 d2
  | _ -> false

let rec eq_stmt (a : Ast.stmt) (b : Ast.stmt) =
  match (a.s, b.s) with
  | Ast.Decl (m1, x1, t1, e1), Ast.Decl (m2, x2, t2, e2) ->
      m1 = m2 && x1 = x2 && Ast.equal_ty t1 t2 && eq_expr e1 e2
  | Ast.Assign (x1, p1, e1), Ast.Assign (x2, p2, e2) ->
      x1 = x2
      && List.length p1 = List.length p2
      && List.for_all2 eq_expr p1 p2 && eq_expr e1 e2
  | Ast.If (c1, a1, b1), Ast.If (c2, a2, b2) ->
      eq_expr c1 c2 && eq_stmt a1 a2 && Option.equal eq_stmt b1 b2
  | Ast.While (c1, s1), Ast.While (c2, s2) -> eq_expr c1 c2 && eq_stmt s1 s2
  | Ast.For (i1, l1, h1, b1, s1), Ast.For (i2, l2, h2, b2, s2) ->
      i1 = i2 && eq_expr l1 l2 && eq_expr h1 h2
      && Option.equal eq_expr b1 b2
      && eq_stmt s1 s2
  | Ast.Return e1, Ast.Return e2 -> Option.equal eq_expr e1 e2
  | Ast.Async s1, Ast.Async s2 | Ast.Finish s1, Ast.Finish s2 -> eq_stmt s1 s2
  | Ast.Block b1, Ast.Block b2 ->
      List.length b1.stmts = List.length b2.stmts
      && List.for_all2 eq_stmt b1.stmts b2.stmts
  | Ast.Expr e1, Ast.Expr e2 -> eq_expr e1 e2
  | _ -> false

let eq_program (a : Ast.program) (b : Ast.program) =
  List.length a.funcs = List.length b.funcs
  && List.for_all2
       (fun (f : Ast.func) (g : Ast.func) ->
         f.fname = g.fname && f.params = g.params
         && Ast.equal_ty f.ret g.ret
         && List.length f.body.stmts = List.length g.body.stmts
         && List.for_all2 eq_stmt f.body.stmts g.body.stmts)
       a.funcs b.funcs
  && List.length a.globals = List.length b.globals
  && List.for_all2
       (fun (x : Ast.global) (y : Ast.global) ->
         x.gname = y.gname && Ast.equal_ty x.gty y.gty && eq_expr x.ginit y.ginit)
       a.globals b.globals

let roundtrip_ok prog =
  let printed = Pretty.program_to_string prog in
  let reparsed = compile_nomain printed in
  eq_program prog reparsed

let test_pretty_roundtrip () =
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      if not (roundtrip_ok (compile b.repair_src)) then
        Alcotest.fail (b.name ^ ": round-trip mismatch"))
    Benchsuite.Suite.all

let roundtrip_prop =
  QCheck.Test.make ~name:"pretty/parse round-trip on random programs"
    ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      roundtrip_ok (compile src))

(* ------------------------------------------------------------------ *)
(* Type checker                                                        *)
(* ------------------------------------------------------------------ *)

let ill_typed src =
  match compile src with
  | exception Typecheck.Error _ -> true
  | _ -> false

let test_typecheck_rejects () =
  let cases =
    [
      ("int + float", "def main() { print(1 + 1.0); }");
      ("bool index", "def main() { val a: int[] = new int[2]; print(a[true]); }");
      ("assign to val", "def main() { val x: int = 1; x = 2; }");
      ("unbound var", "def main() { print(y); }");
      ("bad arity", "def f(x: int) { } def main() { f(1, 2); }");
      ("bad return", "def f(): int { return; } def main() { f(); }");
      ("duplicate decl", "def main() { var x: int = 1; var x: int = 2; }");
      ("mod on float", "def main() { print(1.0 % 2.0); }");
      ("cond not bool", "def main() { if (1) { print(1); } }");
      ("return crosses async", "def f() { async { return; } } def main() { f(); }");
      ( "mutable capture",
        "def main() { var x: int = 1; async { print(x); } }" );
      ( "assign outer local in async",
        "def main() { val a: int[] = new int[1]; async { val y: int = 1; } \
         var z: int = 0; async { z = 1; } }" );
      ("main with params", "def main(x: int) { }");
      ("no main", "def f() { }");
      ("shadow builtin", "def print(x: int) { } def main() { }");
    ]
  in
  List.iter
    (fun (name, src) ->
      if not (ill_typed src) then Alcotest.fail ("accepted: " ^ name))
    cases

let test_typecheck_accepts () =
  let cases =
    [
      "def main() { val x: int = 1; async { print(x); } }";
      "def main() { val a: int[] = new int[3]; async { a[0] = 1; } }";
      "def main() { var g: float = 1.5; g = g * 2.0; print(g); }";
      "def f(): bool { return 1 < 2; } def main() { if (f()) { print(1); } }";
    ]
  in
  List.iter
    (fun src ->
      match compile src with
      | exception Typecheck.Error (m, _) -> Alcotest.fail ("rejected: " ^ m)
      | _ -> ())
    cases

let test_global_capture_allowed () =
  (* Globals are shared state: asyncs may read and write them. *)
  match
    compile "var g: int = 0;\ndef main() { async { g = g + 1; } print(g); }"
  with
  | exception Typecheck.Error (m, _) -> Alcotest.fail m
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Normalization, elision, transforms                                  *)
(* ------------------------------------------------------------------ *)

let test_normalize () =
  let p = Parser.parse_program "def main() { if (true) print(1); }" in
  Alcotest.(check bool) "raw not normalized" false (Normalize.is_normalized p);
  let n = Normalize.normalize p in
  Alcotest.(check bool) "normalized" true (Normalize.is_normalized n);
  Alcotest.(check bool)
    "idempotent" true
    (eq_program n (Normalize.normalize n))

let test_elision () =
  let p = compile "def main() { finish { async { print(1); } } print(2); }" in
  let e = Elision.elide p in
  Alcotest.(check int) "no asyncs" 0 (Ast.count_asyncs e);
  Alcotest.(check int) "no finishes" 0 (Ast.count_finishes e)

let test_strip_finishes () =
  let p =
    compile
      "def main() { finish { async { print(1); } finish { async { print(2); \
       } } } }"
  in
  let s = Transform.strip_finishes p in
  Alcotest.(check int) "no finishes" 0 (Ast.count_finishes s);
  Alcotest.(check int) "asyncs kept" 2 (Ast.count_asyncs s)

let test_insert_finishes () =
  let p = compile "def main() { print(1); print(2); print(3); }" in
  let body = (List.hd p.funcs).body in
  let placement = { Transform.bid = body.bid; lo = 1; hi = 2 } in
  let q = Transform.insert_finishes p [ placement ] in
  Alcotest.(check int) "one finish" 1 (Ast.count_finishes q);
  (match (List.hd q.funcs).body.stmts with
  | [ { s = Ast.Expr _; _ }; { s = Ast.Finish _; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected shape");
  (* nested + disjoint in one block *)
  let p2 = compile "def main() { print(1); print(2); print(3); print(4); }" in
  let b2 = (List.hd p2.funcs).body in
  let q2 =
    Transform.insert_finishes p2
      [
        { Transform.bid = b2.bid; lo = 0; hi = 2 };
        { Transform.bid = b2.bid; lo = 1; hi = 2 };
        { Transform.bid = b2.bid; lo = 3; hi = 3 };
      ]
  in
  Alcotest.(check int) "three finishes" 3 (Ast.count_finishes q2)

let test_insert_crossing_rejected () =
  let p = compile "def main() { print(1); print(2); print(3); }" in
  let body = (List.hd p.funcs).body in
  match
    Transform.insert_finishes p
      [
        { Transform.bid = body.bid; lo = 0; hi = 1 };
        { Transform.bid = body.bid; lo = 1; hi = 2 };
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "crossing intervals must be rejected"

let test_scopecheck () =
  let p =
    compile
      "def main() { val x: int = 1; print(x); val y: int = 2; print(3); }"
  in
  let scopes = Scopecheck.build p in
  let bid = (List.hd p.funcs).body.bid in
  Alcotest.(check bool)
    "wrapping decl used later is rejected" false
    (Scopecheck.wrap_ok scopes ~bid ~lo:0 ~hi:0);
  Alcotest.(check bool)
    "wrapping decl and its uses is fine" true
    (Scopecheck.wrap_ok scopes ~bid ~lo:0 ~hi:1);
  Alcotest.(check bool)
    "wrapping unused decl is fine" true
    (Scopecheck.wrap_ok scopes ~bid ~lo:2 ~hi:2);
  Alcotest.(check bool)
    "no decl involved" true
    (Scopecheck.wrap_ok scopes ~bid ~lo:3 ~hi:3)

(* Every block of the program — however deeply nested under async, finish,
   loops or in helper functions — must be indexed by the scope table, or
   position-based queries (the repair tool's, the static pruner's) would
   silently fail on it. *)
let all_block_ids (p : Ast.program) =
  let acc = ref [] in
  let rec stmt (st : Ast.stmt) =
    match st.s with
    | Ast.Block b -> block b
    | Ast.Async s | Ast.Finish s | Ast.Isolated s | Ast.While (_, s)
    | Ast.For (_, _, _, _, s) ->
        stmt s
    | Ast.If (_, t, e) ->
        stmt t;
        Option.iter stmt e
    | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Expr _ -> ()
  and block (b : Ast.block) =
    acc := b.bid :: !acc;
    List.iter stmt b.stmts
  in
  List.iter (fun (f : Ast.func) -> block f.body) p.funcs;
  !acc

let test_scopecheck_covers_nested_blocks () =
  let p =
    compile
      "var x: int = 0;\n\
       def helper(n: int) { finish { async { x = n; } } }\n\
       def main() {\n\
      \  async { finish { async { x = 1; } } }\n\
      \  for (i = 0 to 2) { async { x = i; } }\n\
      \  helper(7);\n\
       }"
  in
  let scopes = Scopecheck.build p in
  List.iter
    (fun bid ->
      if not (Hashtbl.mem scopes.Scopecheck.blocks bid) then
        Alcotest.failf "block %d missing from the scope table" bid)
    (all_block_ids p)

let test_scopecheck_async_under_loop () =
  let p =
    compile
      "var x: int = 0;\n\
       def main() { for (i = 0 to 3) { val d: int = i; async { x = d; } } }"
  in
  let scopes = Scopecheck.build p in
  (* the loop body block: find it as the block holding two statements,
     the first of which declares d *)
  let body_bid =
    Hashtbl.fold
      (fun bid (stmts : Ast.stmt array) acc ->
        match (acc, Array.length stmts) with
        | None, 2 -> (
            match stmts.(0).Ast.s with
            | Ast.Decl (_, "d", _, _) -> Some bid
            | _ -> acc)
        | _ -> acc)
      scopes.Scopecheck.blocks None
  in
  match body_bid with
  | None -> Alcotest.fail "loop body block not indexed"
  | Some bid ->
      Alcotest.(check bool)
        "wrapping the decl away from the async is rejected" false
        (Scopecheck.wrap_ok scopes ~bid ~lo:0 ~hi:0);
      Alcotest.(check bool)
        "wrapping decl and async together is fine" true
        (Scopecheck.wrap_ok scopes ~bid ~lo:0 ~hi:1)

let test_scopecheck_method_calls () =
  (* wrap_ok must answer for helper-function bodies, not just main *)
  let p =
    compile
      "var x: int = 0;\n\
       def f() { val t: int = 1; x = t; }\n\
       def main() { f(); }"
  in
  let scopes = Scopecheck.build p in
  let f = Option.get (Ast.find_func p "f") in
  Alcotest.(check bool)
    "helper decl used later is rejected" false
    (Scopecheck.wrap_ok scopes ~bid:f.body.bid ~lo:0 ~hi:0);
  Alcotest.(check bool)
    "whole helper body is fine" true
    (Scopecheck.wrap_ok scopes ~bid:f.body.bid ~lo:0 ~hi:1)

(* Normalization is a projection: running it on already-normalized
   programs (Progen output is normalized by construction) changes
   nothing. *)
let normalize_idempotent_prop =
  QCheck.Test.make ~name:"normalize is idempotent on random programs"
    ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let p = compile (Benchsuite.Progen.generate ~seed ()) in
      let n = Normalize.normalize p in
      Normalize.is_normalized n && eq_program p n)

(* The id supply is shared by every domain (serve workers compile and
   rewrite programs concurrently): ids minted in parallel must never
   collide. *)
let test_id_supply_domain_safe () =
  let n = 1_000_000 in
  let ready = Atomic.make 0 in
  let mint () =
    (* start both domains together so their minting overlaps *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let sids = Array.make n 0 and bids = Array.make n 0 in
    for i = 0 to n - 1 do
      sids.(i) <- Ast.fresh_sid ();
      bids.(i) <- Ast.fresh_bid ()
    done;
    (sids, bids)
  in
  let d = Domain.spawn mint in
  let s1, b1 = mint () in
  let s2, b2 = Domain.join d in
  let distinct a b =
    let all = Array.append a b in
    Array.sort compare all;
    let ok = ref true in
    for i = 1 to Array.length all - 1 do
      if all.(i) = all.(i - 1) then ok := false
    done;
    !ok
  in
  Alcotest.(check bool) "sids distinct" true (distinct s1 s2);
  Alcotest.(check bool) "bids distinct" true (distinct b1 b2)

let () =
  Alcotest.run "mhj"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "strings" `Quick test_lexer_string;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "locations" `Quick test_lexer_locations;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "structure" `Quick test_parser_structure;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "multidim arrays" `Quick test_parser_multidim;
          Alcotest.test_case "forasync sugar" `Quick test_forasync_sugar;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "benchmark round-trips" `Quick
            test_pretty_roundtrip;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "rejections" `Quick test_typecheck_rejects;
          Alcotest.test_case "acceptances" `Quick test_typecheck_accepts;
          Alcotest.test_case "global capture" `Quick test_global_capture_allowed;
        ] );
      ( "transform",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "id supply is domain-safe" `Quick
            test_id_supply_domain_safe;
          Alcotest.test_case "elision" `Quick test_elision;
          Alcotest.test_case "strip" `Quick test_strip_finishes;
          Alcotest.test_case "insert" `Quick test_insert_finishes;
          Alcotest.test_case "crossing rejected" `Quick
            test_insert_crossing_rejected;
          Alcotest.test_case "scopecheck" `Quick test_scopecheck;
          Alcotest.test_case "scopecheck nested blocks" `Quick
            test_scopecheck_covers_nested_blocks;
          Alcotest.test_case "scopecheck async under loop" `Quick
            test_scopecheck_async_under_loop;
          Alcotest.test_case "scopecheck helper functions" `Quick
            test_scopecheck_method_calls;
          QCheck_alcotest.to_alcotest normalize_idempotent_prop;
        ] );
    ]
