(* Coverage sweep for small utility corners not exercised elsewhere:
   container edge cases, pretty-printers of auxiliary types, AST helpers,
   and detector bookkeeping. *)

let compile = Mhj.Front.compile

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

let test_vec_clear_and_refill () =
  let v = Tdrutil.Vec.of_list [ 1; 2; 3 ] in
  Tdrutil.Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Tdrutil.Vec.length v);
  Alcotest.(check bool) "empty" true (Tdrutil.Vec.is_empty v);
  Tdrutil.Vec.push v 9;
  Alcotest.(check (list int)) "refill works" [ 9 ] (Tdrutil.Vec.to_list v)

let test_vec_find_exists_negative () =
  let v = Tdrutil.Vec.of_list [ 1; 3; 5 ] in
  Alcotest.(check (option int)) "find none" None
    (Tdrutil.Vec.find_index (fun x -> x mod 2 = 0) v);
  Alcotest.(check bool) "exists false" false
    (Tdrutil.Vec.exists (fun x -> x > 100) v)

let test_prng_choose_singleton () =
  let r = Tdrutil.Prng.create ~seed:5 in
  Alcotest.(check int) "singleton" 42 (Tdrutil.Prng.choose r [ 42 ])

(* ------------------------------------------------------------------ *)
(* Locations and auxiliary printers                                    *)
(* ------------------------------------------------------------------ *)

let test_loc () =
  let a = Mhj.Loc.make ~line:1 ~col:2 ~offset:1 in
  let b = Mhj.Loc.make ~line:1 ~col:5 ~offset:4 in
  Alcotest.(check bool) "ordering by offset" true (Mhj.Loc.compare a b < 0);
  Alcotest.(check bool) "equal to itself" true (Mhj.Loc.equal a a);
  Alcotest.(check string) "renders line:col" "1:2" (Mhj.Loc.to_string a);
  Alcotest.(check string) "dummy renders" "<generated>"
    (Mhj.Loc.to_string Mhj.Loc.dummy);
  Alcotest.(check bool) "dummy is dummy" true (Mhj.Loc.is_dummy Mhj.Loc.dummy)

let test_aux_printers () =
  Alcotest.(check string) "access read" "read"
    (Fmt.str "%a" Rt.Monitor.pp_access Rt.Monitor.Read);
  Alcotest.(check string) "access write" "write"
    (Fmt.str "%a" Rt.Monitor.pp_access Rt.Monitor.Write);
  Alcotest.(check string) "addr global" "g"
    (Fmt.str "%a" Rt.Addr.pp (Rt.Addr.Global "g"));
  Alcotest.(check string) "addr cell" "arr3[7]"
    (Fmt.str "%a" Rt.Addr.pp (Rt.Addr.Cell (3, 7)));
  Alcotest.(check string) "steal policy" "help-first"
    (Fmt.str "%a" Oracles.Steal.pp_policy Oracles.Steal.Help_first);
  Alcotest.(check string) "detector mode" "SRW"
    (Fmt.str "%a" Espbags.Detector.pp_mode Espbags.Detector.Srw)

let test_addr_table () =
  let t = Rt.Addr.Table.create 4 in
  Rt.Addr.Table.add t (Rt.Addr.Cell (1, 2)) "a";
  Rt.Addr.Table.add t (Rt.Addr.Global "x") "b";
  Alcotest.(check (option string)) "cell hit" (Some "a")
    (Rt.Addr.Table.find_opt t (Rt.Addr.Cell (1, 2)));
  Alcotest.(check (option string)) "cell miss" None
    (Rt.Addr.Table.find_opt t (Rt.Addr.Cell (1, 3)));
  Alcotest.(check bool) "global and cell distinct" false
    (Rt.Addr.equal (Rt.Addr.Global "x") (Rt.Addr.Cell (0, 0)))

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)
(* ------------------------------------------------------------------ *)

let fib_src =
  {|
def fib(n: int): int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
def main() { finish { async { print(fib(5)); } } }
|}

let test_ast_helpers () =
  let p = compile fib_src in
  let sids = Mhj.Ast.all_sids p in
  Alcotest.(check bool) "sids unique" true
    (List.length sids = List.length (List.sort_uniq compare sids));
  Alcotest.(check bool) "find_func hit" true
    (Option.is_some (Mhj.Ast.find_func p "fib"));
  Alcotest.(check bool) "find_func miss" true
    (Option.is_none (Mhj.Ast.find_func p "nope"));
  Alcotest.(check int) "asyncs" 1 (Mhj.Ast.count_asyncs p);
  Alcotest.(check int) "finishes" 1 (Mhj.Ast.count_finishes p);
  Alcotest.(check string) "ty printer" "int[][]"
    (Mhj.Ast.string_of_ty (Mhj.Ast.TArr (Mhj.Ast.TArr Mhj.Ast.TInt)))

let test_elision_idempotent () =
  let p = compile fib_src in
  let e1 = Mhj.Elision.elide p in
  let e2 = Mhj.Elision.elide e1 in
  Alcotest.(check string) "idempotent"
    (Mhj.Pretty.program_to_string e1)
    (Mhj.Pretty.program_to_string e2)

let test_normalize_benchmarks_stable () =
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      let p = Benchsuite.Bench.repair_program b in
      Alcotest.(check bool)
        (b.name ^ " is normalized")
        true
        (Mhj.Normalize.is_normalized p))
    Benchsuite.Suite.all

(* ------------------------------------------------------------------ *)
(* Detector bookkeeping and metrics                                    *)
(* ------------------------------------------------------------------ *)

let test_detector_stats () =
  let prog =
    compile "var x: int = 0;\ndef main() { async { x = 1; } print(x); }"
  in
  let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  Alcotest.(check bool) "not clean" false (Espbags.Detector.clean det);
  Alcotest.(check bool) "accesses counted" true
    (det.Espbags.Detector.n_accesses >= 2);
  Alcotest.(check int) "one location" 1 det.Espbags.Detector.n_locations;
  let det2, _ =
    Espbags.Detector.detect Espbags.Detector.Mrw
      (compile "def main() { print(1); }")
  in
  Alcotest.(check bool) "clean program" true (Espbags.Detector.clean det2)

let test_parallelism_metric () =
  let res =
    Rt.Interp.run
      (compile "def main() { for (i = 0 to 9) { async { work(100); } } }")
  in
  let g = Compgraph.Graph.of_sdpst res.tree in
  Alcotest.(check bool) "parallelism > 5" true
    (Compgraph.Metrics.parallelism g > 5.0);
  let serial =
    Rt.Interp.run (compile "def main() { work(100); work(100); }")
  in
  let gs = Compgraph.Graph.of_sdpst serial.tree in
  Alcotest.(check bool) "serial parallelism ~ 1" true
    (Compgraph.Metrics.parallelism gs < 1.1)

let test_race_dynamic_count () =
  let prog =
    compile
      {|
var a: int[] = new int[4];
def main() {
  for (i = 0 to 3) { async { a[i] = i; } }
  print(a[0] + a[1] + a[2] + a[3]);
}
|}
  in
  let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let races = Espbags.Detector.races det in
  (* one race per async instance *)
  Alcotest.(check int) "dynamic" 4 (List.length races)

let test_builtin_table () =
  Alcotest.(check bool) "work is builtin" true (Mhj.Builtins.is_builtin "work");
  Alcotest.(check bool) "nope is not" false (Mhj.Builtins.is_builtin "nope");
  match Mhj.Builtins.find "cas" with
  | Some sg ->
      Alcotest.(check int) "cas arity" 4 (List.length sg.args);
      Alcotest.(check bool) "cas returns bool" true (sg.ret = Mhj.Ast.TBool)
  | None -> Alcotest.fail "cas must be registered"

let () =
  Alcotest.run "misc"
    [
      ( "containers",
        [
          Alcotest.test_case "vec clear/refill" `Quick
            test_vec_clear_and_refill;
          Alcotest.test_case "vec negative queries" `Quick
            test_vec_find_exists_negative;
          Alcotest.test_case "prng choose singleton" `Quick
            test_prng_choose_singleton;
        ] );
      ( "printers",
        [
          Alcotest.test_case "locations" `Quick test_loc;
          Alcotest.test_case "auxiliary pp" `Quick test_aux_printers;
          Alcotest.test_case "addr table" `Quick test_addr_table;
        ] );
      ( "ast",
        [
          Alcotest.test_case "helpers" `Quick test_ast_helpers;
          Alcotest.test_case "elision idempotent" `Quick
            test_elision_idempotent;
          Alcotest.test_case "benchmarks normalized" `Quick
            test_normalize_benchmarks_stable;
        ] );
      ( "stats",
        [
          Alcotest.test_case "detector stats" `Quick test_detector_stats;
          Alcotest.test_case "parallelism metric" `Quick
            test_parallelism_metric;
          Alcotest.test_case "dynamic race count" `Quick
            test_race_dynamic_count;
          Alcotest.test_case "builtin table" `Quick test_builtin_table;
        ] );
    ]
