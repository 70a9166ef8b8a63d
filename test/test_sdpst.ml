(* Tests for the S-DPST: construction shape, ancestor queries (paper
   Definitions 3-5 and Theorem 1), timing analysis (spans/drags), finish
   insertion, and pruning. *)

let run src = Rt.Interp.run (Mhj.Front.compile src)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_skeletons () =
  let skel src = Sdpst.Serial.skeleton (run src).tree in
  Alcotest.(check string)
    "straight-line is one step" "root(step)"
    (skel "def main() { print(1); print(2); }");
  Alcotest.(check string)
    "async splits steps" "root(step async(step) step)"
    (skel "def main() { print(1); async { print(2); } print(3); }");
  Alcotest.(check string)
    "finish" "root(finish(async(step)))"
    (skel "def main() { finish { async { print(1); } } }");
  Alcotest.(check string)
    "branch scope" "root(step scope(step) step)"
    (skel "def main() { if (1 < 2) { print(1); } print(2); }");
  Alcotest.(check string)
    "call scope mid-step"
    "root(step call:f(step) step)"
    (skel "def f(): int { return 3; } def main() { print(f() + 1); }");
  Alcotest.(check string)
    "loop iterations are scope instances"
    "root(step scope(step) scope(step) step)"
    (skel "def main() { print(0); for (i = 0 to 1) { print(i); } print(9); }")

let test_ids_are_preorder () =
  let res = run "def main() { async { async { print(1); } } print(2); }" in
  let ids = ref [] in
  Sdpst.Node.iter_tree (fun n -> ids := n :: !ids) res.tree;
  let ids = List.rev !ids in
  Alcotest.(check (list int))
    "preorder ids" (List.init (List.length ids) Fun.id) ids

let test_count_by_kind () =
  let res =
    run "def main() { finish { async { print(1); } async { print(2); } } }"
  in
  let asyncs, finishes, scopes, steps = Sdpst.Node.count_by_kind res.tree in
  Alcotest.(check int) "asyncs" 2 asyncs;
  Alcotest.(check int) "finishes (incl. root)" 2 finishes;
  Alcotest.(check int) "scopes" 0 scopes;
  Alcotest.(check int) "steps" 2 steps

(* ------------------------------------------------------------------ *)
(* Fibonacci example: Figure 9 relations                               *)
(* ------------------------------------------------------------------ *)

let fib_res () =
  run
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

let test_fib_nslca () =
  let res = fib_res () in
  let tree = res.Rt.Interp.tree in
  let asyncs = ref [] in
  Sdpst.Node.iter_tree
    (fun n -> if Sdpst.Node.is_async tree n then asyncs := n :: !asyncs)
    tree;
  let asyncs = List.rev !asyncs in
  (* a0 = paper's Async0 (the spawn in main); a1 = Async1 (fib(n-1)) *)
  let a0 = List.hd asyncs in
  let a1 = List.nth asyncs 1 in
  let steps = Sdpst.Tree.steps tree in
  let step_in_a1 = List.find (fun s -> Sdpst.Lca.is_ancestor tree a1 s) steps in
  (* the combining step "ret.v = X.v + Y.v" of the outer fib call: under
     a0, after a1, not inside any async child of a0 *)
  let sink =
    List.find
      (fun (s : Sdpst.Node.t) ->
        Sdpst.Lca.is_ancestor tree a0 s
        && s > a1
        && (not (Sdpst.Lca.is_ancestor tree a1 s))
        && not
             (Sdpst.Node.is_async tree
                (Sdpst.Lca.nonscope_child_ancestor tree ~anc:a0 s)))
      steps
  in
  let nslca = Sdpst.Lca.ns_lca tree step_in_a1 sink in
  Alcotest.(check int) "NS-LCA is the enclosing async" a0 nslca;
  Alcotest.(check bool)
    "plain LCA is a scope (the call scope)" true
    (Sdpst.Node.is_scope tree (Sdpst.Lca.lca tree step_in_a1 sink));
  Alcotest.(check bool)
    "may happen in parallel (Theorem 1)" true
    (Sdpst.Lca.may_happen_in_parallel tree step_in_a1 sink)

let test_theorem1 () =
  let res =
    run
      "def main() { print(0); async { print(1); } print(2); finish { async \
       { print(3); } } print(4); }"
  in
  let steps = Array.of_list (Sdpst.Tree.steps res.tree) in
  let mhp a b = Sdpst.Lca.may_happen_in_parallel res.tree steps.(a) steps.(b) in
  Alcotest.(check bool) "async body || continuation" true (mhp 1 2);
  Alcotest.(check bool) "symmetric" true (mhp 2 1);
  Alcotest.(check bool) "program order before spawn" false (mhp 0 1);
  Alcotest.(check bool) "finished async not parallel with after" false
    (mhp 3 4);
  Alcotest.(check bool) "escaped async parallel with finished region" true
    (mhp 1 3);
  Alcotest.(check bool) "not parallel with itself" false (mhp 2 2)

let test_nonscope_children () =
  let res =
    run
      "def main() { print(0); if (1 < 2) { async { print(1); } print(2); } \
       print(3); }"
  in
  let kids = Repair.Depgraph.nonscope_children res.tree Sdpst.Node.root in
  Alcotest.(check (list string))
    "kinds"
    [ "step"; "async"; "step"; "step" ]
    (List.map
       (fun n -> Sdpst.Node.kind_name (Sdpst.Node.kind res.tree n))
       kids)

(* ------------------------------------------------------------------ *)
(* Spans and drags (the paper's Figure 3/4 cost model)                 *)
(* ------------------------------------------------------------------ *)

let test_figure3_costs () =
  let place p =
    Fmt.str "def main() { %s }"
      (String.concat " "
         (List.map
            (function
              | `A w -> Fmt.str "async { work(%d); }" w
              | `Open -> "finish {"
              | `Close -> "}")
            p))
  in
  let cpl p = Sdpst.Analysis.critical_path_length (run (place p)).tree in
  (* calibrate away the constant bookkeeping overhead of main's own step:
     without any finish the CPL is 600 (the longest async) + overhead *)
  let base = cpl [ `A 500; `A 10; `A 10; `A 400; `A 600; `A 500 ] in
  let oh = base - 600 in
  (* Each async carries a few units of spawn/bookkeeping cost on top of its
     work(), so allow a small tolerance around the paper's figures; the
     exact-arithmetic version of this example lives in test_dp.ml. *)
  let check name expected placement =
    let got = cpl placement - oh in
    if abs (got - expected) > 25 then
      Alcotest.failf "%s: expected ~%d, got %d" name expected got
  in
  check "( A ) ( B ) C ( D ) E F = 1510" 1510
    [ `Open; `A 500; `Close; `Open; `A 10; `Close; `A 10; `Open; `A 400;
      `Close; `A 600; `A 500 ];
  check "( A B ) C ( D ) E F = 1500" 1500
    [ `Open; `A 500; `A 10; `Close; `A 10; `Open; `A 400; `Close; `A 600;
      `A 500 ];
  check "( A B C ) ( D ) E F = 1500" 1500
    [ `Open; `A 500; `A 10; `A 10; `Close; `Open; `A 400; `Close; `A 600;
      `A 500 ];
  check "( A ( B ) C D E ) F = 1110" 1110
    [ `Open; `A 500; `Open; `A 10; `Close; `A 10; `A 400; `A 600; `Close;
      `A 500 ]

let test_span_work_units () =
  let seq = run "def main() { work(10); work(3); }" in
  Alcotest.(check int)
    "sequential program: span = work" seq.work
    (Sdpst.Analysis.critical_path_length seq.tree);
  let par = run "def main() { work(10); async { work(5); } work(3); }" in
  let span = Sdpst.Analysis.critical_path_length par.tree in
  Alcotest.(check bool) "parallel program: span < work" true (span < par.work);
  Alcotest.(check int) "work equals step costs" par.work
    (Sdpst.Analysis.work par.tree)

(* ------------------------------------------------------------------ *)
(* Finish insertion and pruning                                        *)
(* ------------------------------------------------------------------ *)

let test_insert_finish_node () =
  let res = run "def main() { print(0); async { print(1); } print(2); }" in
  let tree = res.tree in
  let root = Sdpst.Node.root in
  Alcotest.(check string)
    "before" "root(step async(step) step)"
    (Sdpst.Serial.skeleton tree);
  let cpl_before = Sdpst.Analysis.critical_path_length tree in
  let fin = Sdpst.Tree.insert_finish tree ~parent:root ~lo:1 ~hi:1 in
  Alcotest.(check string)
    "after" "root(step finish(async(step)) step)"
    (Sdpst.Serial.skeleton tree);
  Alcotest.(check int) "depth updated" 2
    (Sdpst.Node.depth tree (Sdpst.Node.first_child tree fin));
  Alcotest.(check bool)
    "cpl did not decrease" true
    (Sdpst.Analysis.critical_path_length tree >= cpl_before)

let test_prune () =
  let res =
    run
      "def main() { async { work(100); } finish { async { work(50); } } \
       work(7); }"
  in
  let tree = res.tree in
  let cpl = Sdpst.Analysis.critical_path_length tree in
  let n_before = tree.Sdpst.Node.n_nodes in
  let removed = Sdpst.Analysis.prune tree ~keep:(fun _ -> false) in
  Alcotest.(check bool) "removed some nodes" true (removed > 0);
  Alcotest.(check int) "node count updated" (n_before - removed)
    tree.Sdpst.Node.n_nodes;
  Alcotest.(check int)
    "span preserved" cpl
    (Sdpst.Analysis.critical_path_length tree)

let test_prune_keeps_marked () =
  let res = run "def main() { async { work(9); } async { work(4); } }" in
  let tree = res.tree in
  let cost = Sdpst.Node.cost tree in
  ignore (Sdpst.Analysis.prune tree ~keep:(fun n -> cost n >= 9));
  let kept_intact = ref false in
  Sdpst.Node.iter_tree
    (fun n ->
      if Sdpst.Node.is_step tree n && cost n >= 9 then kept_intact := true)
    tree;
  Alcotest.(check bool) "kept subtree intact" true !kept_intact

(* A budget prune lowers the live node count; the ids of finishes
   spliced in afterwards must still be fresh (they once came from the
   live count and reused a live node's id). *)
let test_ids_unique_after_prune () =
  let res =
    run
      "def main() { async { async { work(1); } async { work(2); } } \
       async { work(50); } print(1); print(2); }"
  in
  let tree = res.tree in
  let next = tree.Sdpst.Node.next_id in
  let removed =
    Sdpst.Analysis.prune tree ~keep:(fun n -> Sdpst.Node.cost tree n >= 50)
  in
  Alcotest.(check bool) "pruned an early subtree" true (removed > 0);
  let root = Sdpst.Node.root in
  let fins =
    List.init 2 (fun _ ->
        Sdpst.Tree.insert_finish tree ~parent:root ~lo:0 ~hi:0)
  in
  List.iteri
    (fun i (f : Sdpst.Node.t) ->
      Alcotest.(check int) (Fmt.str "splice %d: fresh id" i) (next + i) f)
    fins;
  let ids = ref [] in
  Sdpst.Node.iter_tree (fun n -> ids := n :: !ids) tree;
  Alcotest.(check int) "ids unique"
    (List.length !ids)
    (List.length (List.sort_uniq Int.compare !ids));
  Alcotest.(check int) "live count" (List.length !ids) tree.Sdpst.Node.n_nodes;
  Alcotest.(check bool) "ids below next_id" true
    (List.for_all (fun id -> id < tree.Sdpst.Node.next_id) !ids)

(* The span/drag columns against a test-local oracle: one plain
   recursion returning (span, drag), no memo. *)
let rec oracle tree (n : Sdpst.Node.t) =
  let module N = Sdpst.Node in
  match (N.collapsed tree n, N.kind tree n) with
  | Some (span, drag), kind ->
      (span, if kind = N.Async then 0 else drag)
  | None, N.Step -> (N.cost tree n, N.cost tree n)
  | None, kind ->
      let start, span =
        N.fold_children tree
          (fun (start, span) c ->
            let cs, cd = oracle tree c in
            (start + cd, max span (start + cs)))
          (0, 0) n
      in
      ( span,
        match kind with
        | Sdpst.Node.Async -> 0
        | Root | Finish -> span
        | _ -> start )

let check_columns label (tree : Sdpst.Node.tree) =
  let span, drag = Sdpst.Analysis.span_memo tree in
  Sdpst.Node.iter_tree
    (fun n ->
      let s, d = oracle tree n in
      if span n <> s || drag n <> d then
        Alcotest.failf "%s: %a: columns (%d, %d), oracle (%d, %d)" label
          (Sdpst.Node.pp tree) n (span n) (drag n) s d)
    tree;
  Alcotest.(check int) (label ^ ": cpl")
    (fst (oracle tree Sdpst.Node.root))
    (Sdpst.Analysis.critical_path_length tree)

(* Every node's (span, drag), on each Table 1 program and Progen 1-50,
   also after a prune and after finish splices. *)
let test_span_columns () =
  let programs =
    List.map
      (fun (b : Benchsuite.Bench.t) ->
        (b.name, Benchsuite.Bench.stripped_program b))
      Benchsuite.Suite.all
    @ List.init 50 (fun i ->
          ( Fmt.str "progen %d" (i + 1),
            Mhj.Front.compile (Benchsuite.Progen.generate ~seed:(i + 1) ()) ))
  in
  List.iter
    (fun (label, prog) ->
      let tree = (Rt.Interp.run prog).tree in
      check_columns label tree;
      (* splice a finish over the first two children of every third
         interior node, then prune all but the costliest steps *)
      let parents = ref [] in
      Sdpst.Node.iter_tree
        (fun n ->
          if Sdpst.Node.n_children tree n >= 2 then
            parents := n :: !parents)
        tree;
      List.iteri
        (fun i p ->
          if i mod 3 = 0 then
            ignore (Sdpst.Tree.insert_finish tree ~parent:p ~lo:0 ~hi:1))
        !parents;
      check_columns (label ^ " spliced") tree;
      ignore
        (Sdpst.Analysis.prune tree ~keep:(fun n -> Sdpst.Node.cost tree n > 20));
      check_columns (label ^ " pruned") tree)
    programs

(* The arena holds a node in 8 ints: after a run, the whole tree —
   chunk directory, growth slack and side tables included — stays within
   10 reachable words per node (test/footprint runs the same bound on
   two scale presets under @ci). *)
let test_footprint () =
  let b = Option.get (Benchsuite.Suite.find "Mergesort") in
  let tree = (Rt.Interp.run (Benchsuite.Bench.stripped_program b)).tree in
  let words =
    float_of_int (Obj.reachable_words (Obj.repr tree))
    /. float_of_int tree.Sdpst.Node.n_nodes
  in
  if words > 10. then
    Alcotest.failf "Mergesort: %.2f words per S-DPST node (bound 10)" words

(* Every field of a row reads back as written: a call scope with the
   largest sid, origin and last statement, an async under it, which
   sets the scope's spawns bit, and a collapsed summary.  The sid field
   sits below the spawns bit in one int, so a sid read that does not
   mask its field fails here. *)
let test_row_fields () =
  let module N = Sdpst.Node in
  let tree = N.create_tree ~main_bid:7 in
  let big = (1 lsl 31) - 2 in
  N.place tree 1 ~parent:N.root ~prev:N.none ~kind:(N.Scope (N.Scall "f"))
    ~sid:big ~origin_bid:big ~origin_idx:big ~body_bid:big ~cost:3
    ~last_idx:big;
  let a = N.new_child tree ~parent:1 ~kind:N.Async ~sid:5 () in
  let step = N.new_child tree ~parent:N.root ~kind:N.Step () in
  N.set_collapsed tree 1 (12, 5);
  let int = Alcotest.(check int) in
  int "sid" big (N.sid tree 1);
  int "origin_bid" big (N.origin_bid tree 1);
  int "origin_idx" big (N.origin_idx tree 1);
  int "body_bid" big (N.body_bid tree 1);
  int "cost" 3 (N.cost tree 1);
  int "last_idx" big (N.last_idx tree 1);
  int "parent" N.root (N.parent tree 1);
  int "depth" 1 (N.depth tree 1);
  Alcotest.(check string) "kind" "call:f" (N.kind_name (N.kind tree 1));
  Alcotest.(check (option (pair int int))) "collapsed" (Some (12, 5))
    (N.collapsed tree 1);
  Alcotest.(check bool) "scope spawns" true (N.spawns tree 1);
  Alcotest.(check bool) "root spawns" true (N.spawns tree N.root);
  Alcotest.(check bool) "async spawns" true (N.spawns tree a);
  int "async sid" 5 (N.sid tree a);
  Alcotest.(check bool) "step does not spawn" false (N.spawns tree step);
  int "step sid" (-1) (N.sid tree step)

(* The spawns bit of each node and the outermost spawn-free scope of
   each step: marking stops at the first marked ancestor, so a bit
   missed once stays missed above. *)
let test_spawn_free_tops () =
  let src =
    "def f() { work(2); }\n\
     def main() { print(0); if (1 < 2) { for (i = 0 to 1) { f(); } } \
     async { if (1 < 2) { { work(1); } } } \
     if (1 < 2) { work(1); async { work(2); } { work(3); } } }"
  in
  let tree = (run src).tree in
  let module N = Sdpst.Node in
  let rec spawns n =
    N.is_async tree n
    || N.kind tree n = N.Finish
    || N.exists_child tree spawns n
  in
  (* the outermost scope ancestor on a path of spawn-free scopes *)
  let rec top n =
    let p = N.parent tree n in
    if p >= 0 && N.is_scope tree p && not (spawns p) then
      match top p with t when t <> N.none -> t | _ -> p
    else N.none
  in
  let tops = ref 0 in
  N.iter_tree
    (fun n ->
      Alcotest.(check bool) (Fmt.str "%a spawns" (N.pp tree) n) (spawns n)
        (N.spawns tree n);
      if N.is_step tree n then begin
        Alcotest.(check int) (Fmt.str "%a top" (N.pp tree) n) (top n)
          (N.spawn_free_top tree n);
        if top n <> N.none then incr tops
      end)
    tree;
  Alcotest.(check bool) "some steps have a spawn-free top" true (!tops >= 4)

(* ------------------------------------------------------------------ *)
(* Tree serialization                                                  *)
(* ------------------------------------------------------------------ *)

let tree_roundtrip_equal (a : Sdpst.Node.tree) (b : Sdpst.Node.tree) =
  a.Sdpst.Node.n_nodes = b.Sdpst.Node.n_nodes
  && Sdpst.Serial.skeleton a = Sdpst.Serial.skeleton b
  && Sdpst.Serial.to_string a = Sdpst.Serial.to_string b
  && Sdpst.Analysis.critical_path_length a
     = Sdpst.Analysis.critical_path_length b

let test_tree_serialization_roundtrip () =
  List.iter
    (fun src ->
      let res = run src in
      let text = Sdpst.Serial.tree_to_string res.tree in
      let back = Sdpst.Serial.tree_of_string text in
      if not (tree_roundtrip_equal res.tree back) then
        Alcotest.failf "round-trip mismatch for %s" src)
    [
      "def main() { print(1); }";
      "def main() { async { work(5); } finish { async { work(2); } } }";
      "def f(n: int) { if (n > 0) { async { f(n - 1); } } }\n\
       def main() { f(4); work(3); }";
    ]

let serialization_roundtrip_prop =
  QCheck.Test.make ~name:"tree serialization round-trips" ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let res = run src in
      let back =
        Sdpst.Serial.tree_of_string (Sdpst.Serial.tree_to_string res.tree)
      in
      tree_roundtrip_equal res.tree back)

let test_tree_serialization_pruned () =
  let res = run "def main() { async { work(50); } async { work(9); } }" in
  ignore
    (Sdpst.Analysis.prune res.tree ~keep:(fun n ->
         Sdpst.Node.cost res.tree n > 20));
  let back =
    Sdpst.Serial.tree_of_string (Sdpst.Serial.tree_to_string res.tree)
  in
  Alcotest.(check bool) "pruned round-trip" true
    (tree_roundtrip_equal res.tree back)

(* A tree edited after the run — finishes spliced in, race-free regions
   collapsed — keeps its ids, which are then neither consecutive nor in
   preorder: its dump must read back to a tree that dumps the same. *)
let test_tree_serialization_edited () =
  let check src =
    let tree = (run src).tree in
    let root = Sdpst.Node.root in
    ignore (Sdpst.Tree.insert_finish tree ~parent:root ~lo:1 ~hi:2);
    ignore (Sdpst.Tree.insert_finish tree ~parent:root ~lo:0 ~hi:1);
    ignore
      (Sdpst.Analysis.prune tree ~keep:(fun n -> Sdpst.Node.cost tree n > 20));
    let text = Sdpst.Serial.tree_to_string tree in
    let back = Sdpst.Serial.tree_of_string text in
    Alcotest.(check string) "dump of the read-back tree" text
      (Sdpst.Serial.tree_to_string back);
    Alcotest.(check bool) "same tree" true (tree_roundtrip_equal tree back);
    (* the dump has no spawns bit: the read-back tree marks its own *)
    Sdpst.Node.iter_tree
      (fun n ->
        Alcotest.(check bool) "spawns bit read back"
          (Sdpst.Node.spawns tree n) (Sdpst.Node.spawns back n);
        if Sdpst.Node.is_step tree n then
          Alcotest.(check int)
            (Fmt.str "spawn-free top of %a" (Sdpst.Node.pp tree) n)
            (Sdpst.Node.spawn_free_top tree n)
            (Sdpst.Node.spawn_free_top back n))
      tree
  in
  check
    "def main() { print(0); async { work(9); } finish { async { work(3); } \
     async { work(40); } } print(2); }";
  (* spawn-free scopes, a finish-only scope (never collapsed: it holds a
     finish) and an empty block *)
  check
    "def f() { work(2); }\n\
     def main() { print(0); async { work(9); } if (1 < 2) { for (i = 0 \
     to 2) { work(1); f(); } } if (1 < 2) { finish { work(1); } work(5); \
     } finish { async { work(3); } async { work(40); } } { { } work(30); \
     } if (1 < 2) { work(1); async { work(2); } work(25); } print(2); }"

let test_tree_serialization_errors () =
  let bad s =
    match Sdpst.Serial.tree_of_string s with
    | exception Sdpst.Serial.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad magic" true (bad "nope\n");
  Alcotest.(check bool) "garbage line" true
    (bad "tdrace-sdpst-v1\nwat\n");
  Alcotest.(check bool) "orphan node" true
    (bad "tdrace-sdpst-v1\n0 -1 R -1 -1 -1 7 0 -1\n5 99 S -1 0 0 -1 3 0\n");
  Alcotest.(check bool) "duplicate id" true
    (bad
       "tdrace-sdpst-v1\n0 -1 R -1 -1 -1 7 0 -1\n1 0 S -1 0 0 -1 3 0\n\
        1 0 S -1 0 1 -1 3 1\n");
  Alcotest.(check bool) "field out of range" true
    (bad "tdrace-sdpst-v1\n0 -1 R -1 -1 -1 7 0 -1\n1 0 S -1 -5 0 -1 3 0\n")

let test_offline_trace_resolution () =
  (* The full offline hand-off: serialize tree + trace, reload both
     without re-executing, and resolve the races. *)
  let src =
    "var x: int = 0;\ndef main() { async { x = 1; } print(x); }"
  in
  let prog = Mhj.Front.compile src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let tree_text = Sdpst.Serial.tree_to_string res.tree in
  let trace_text =
    Espbags.Trace.to_string ~mode:Espbags.Detector.Mrw
      (Espbags.Detector.races det)
  in
  let tree = Sdpst.Serial.tree_of_string tree_text in
  let _mode, races = Espbags.Trace.of_string tree trace_text in
  Alcotest.(check int) "races resolved offline" 1 (List.length races);
  let r = List.hd races in
  Alcotest.(check bool) "endpoints are steps" true
    (Sdpst.Node.is_step tree r.src && Sdpst.Node.is_step tree r.sink);
  Alcotest.(check bool) "MHP holds on the reloaded tree" true
    (Sdpst.Lca.may_happen_in_parallel tree r.src r.sink)

let () =
  Alcotest.run "sdpst"
    [
      ( "construction",
        [
          Alcotest.test_case "skeletons" `Quick test_skeletons;
          Alcotest.test_case "preorder ids" `Quick test_ids_are_preorder;
          Alcotest.test_case "count by kind" `Quick test_count_by_kind;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "row fields" `Quick test_row_fields;
          Alcotest.test_case "spawn-free tops" `Quick test_spawn_free_tops;
        ] );
      ( "ancestry",
        [
          Alcotest.test_case "fib NS-LCA (Fig. 9)" `Quick test_fib_nslca;
          Alcotest.test_case "Theorem 1 MHP" `Quick test_theorem1;
          Alcotest.test_case "non-scope children" `Quick
            test_nonscope_children;
        ] );
      ( "timing",
        [
          Alcotest.test_case "Figure 3/4 CPLs" `Quick test_figure3_costs;
          Alcotest.test_case "span/work units" `Quick test_span_work_units;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "insert finish" `Quick test_insert_finish_node;
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "prune keeps marked" `Quick
            test_prune_keeps_marked;
          Alcotest.test_case "ids unique after prune" `Quick
            test_ids_unique_after_prune;
          Alcotest.test_case "span/drag columns" `Slow test_span_columns;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "round-trip" `Quick
            test_tree_serialization_roundtrip;
          QCheck_alcotest.to_alcotest serialization_roundtrip_prop;
          Alcotest.test_case "pruned round-trip" `Quick
            test_tree_serialization_pruned;
          Alcotest.test_case "spliced and pruned round-trip" `Quick
            test_tree_serialization_edited;
          Alcotest.test_case "parse errors" `Quick
            test_tree_serialization_errors;
          Alcotest.test_case "offline trace resolution" `Quick
            test_offline_trace_resolution;
        ] );
    ]
