(* Tests for the static analysis layer (lib/static): MHP pairs, alias
   summaries, race conflicts, the lint rules, and the two properties that
   justify wiring the layer into the dynamic pipeline — soundness of the
   static MHP relation w.r.t. the ESP-bags detector, and race-set identity
   under static pruning. *)

let compile = Mhj.Front.compile

let analyze src =
  let prog = compile src in
  let summary = Static.Summary.build prog in
  let mhp = Static.Mhp.analyze prog summary in
  (prog, summary, mhp)

let conflicts src =
  let _, summary, mhp = analyze src in
  Static.Racecheck.conflicts summary mhp

let conflicts_coarse src =
  let _, summary, mhp = analyze src in
  Static.Racecheck.conflicts ~refine:false summary mhp

let qcount default =
  match Option.bind (Sys.getenv_opt "TDR_QCHECK_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(* The statement ids of every async body in source order. *)
let async_body_sids prog =
  let acc = ref [] in
  Mhj.Ast.iter_stmts
    (fun st ->
      match st.Mhj.Ast.s with
      | Mhj.Ast.Async body -> acc := body.Mhj.Ast.sid :: !acc
      | _ -> ())
    prog;
  List.rev !acc

let rule_names findings =
  List.sort_uniq compare
    (List.map (fun (f : Static.Finding.t) -> Static.Finding.rule_name f.rule)
       findings)

(* ------------------------------------------------------------------ *)
(* MHP unit tests                                                      *)
(* ------------------------------------------------------------------ *)

let test_sibling_asyncs_mhp () =
  let prog, _, mhp =
    analyze "var x: int = 0;\ndef main() { async { x = 1; } async { x = 2; } }"
  in
  match async_body_sids prog with
  | [ a; b ] ->
      Alcotest.(check bool) "bodies may run in parallel" true
        (Static.Mhp.mhp mhp a b);
      Alcotest.(check bool) "no self-pair without a loop" false
        (Static.Mhp.mhp mhp a a)
  | sids -> Alcotest.failf "expected 2 async bodies, got %d" (List.length sids)

let test_finish_kills_mhp () =
  let prog, summary, mhp =
    analyze
      "var x: int = 0;\n\
       def main() { finish { async { x = 1; } } x = 2; }"
  in
  let body =
    match async_body_sids prog with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected one async"
  in
  (* the final assignment is some statement after the finish; no statement
     outside the finish may overlap the async body *)
  Mhj.Ast.iter_stmts
    (fun st ->
      if st.Mhj.Ast.sid <> body then
        Alcotest.(check bool)
          (Fmt.str "sid %d vs async body" st.Mhj.Ast.sid)
          false
          (Static.Mhp.mhp mhp st.Mhj.Ast.sid body))
    prog;
  ignore summary

let test_loop_self_pair () =
  let prog, _, mhp =
    analyze
      "var x: int = 0;\n\
       def main() { for (i = 0 to 3) { async { x = x + 1; } } }"
  in
  match async_body_sids prog with
  | [ body ] ->
      Alcotest.(check bool) "cross-iteration self-pair" true
        (Static.Mhp.mhp mhp body body)
  | _ -> Alcotest.fail "expected one async"

let test_interprocedural_escape () =
  (* f leaves its async unjoined: the escape crosses the call boundary *)
  let escaping =
    conflicts
      "var x: int = 0;\n\
       def f() { async { x = 1; } }\n\
       def main() { f(); x = 2; }"
  in
  Alcotest.(check bool) "escaping async conflicts with caller" true
    (escaping <> []);
  (* g joins its async internally: nothing escapes, nothing conflicts *)
  let joined =
    conflicts
      "var x: int = 0;\n\
       def g() { finish { async { x = 1; } } }\n\
       def main() { g(); x = 2; }"
  in
  Alcotest.(check int) "joined async is invisible to the caller" 0
    (List.length joined)

(* ------------------------------------------------------------------ *)
(* Alias summary / race-check unit tests                               *)
(* ------------------------------------------------------------------ *)

let test_alias_conflict () =
  (* b aliases a, so the two writes collide through different names *)
  let cs =
    conflicts
      "def main() {\n\
      \  val a: int[] = new int[2];\n\
      \  val b: int[] = a;\n\
      \  async { a[0] = 1; }\n\
      \  b[0] = 2;\n\
       }"
  in
  Alcotest.(check bool) "aliased arrays conflict" true (cs <> []);
  Alcotest.(check bool) "witness is a write/write" true
    (List.exists (fun (c : Static.Racecheck.conflict) -> c.kind = `Write_write)
       cs)

let test_disjoint_allocations_no_conflict () =
  let cs =
    conflicts
      "def main() {\n\
      \  val a: int[] = new int[2];\n\
      \  val b: int[] = new int[2];\n\
      \  async { a[0] = 1; }\n\
      \  b[0] = 2;\n\
       }"
  in
  Alcotest.(check int) "distinct sites stay disjoint" 0 (List.length cs)

let test_param_aliasing () =
  (* the same array flows into both calls; writes in the escaped asyncs
     must be seen as colliding through the shared parameter *)
  let cs =
    conflicts
      "def put(a: int[]) { async { a[0] = 1; } }\n\
       def main() { val a: int[] = new int[4]; put(a); put(a); }"
  in
  Alcotest.(check bool) "aliasing through parameters detected" true
    (cs <> [])

let test_verified_clean () =
  let prog =
    compile
      "var x: int = 0;\n\
       def main() { finish { async { x = 1; } } print(x); }"
  in
  let _, _, cs = Static.Racecheck.check prog in
  Alcotest.(check int) "fully synchronized program verifies" 0
    (List.length cs)

let test_figure5_static_races () =
  (* Figure 5 of the paper: the dynamic detector finds races on x and y;
     the static layer must cover both (soundness), as findings *)
  let prog =
    compile
      {|
var x: int = 0;
var y: int = 0;
def main() {
  if (1 < 2) {
    async { work(5); }
    async { x = 1; }
  }
  async { y = 2; }
  async { print(x + y); }
}
|}
  in
  let summary, _, cs = Static.Racecheck.check prog in
  let findings = Static.Racecheck.to_findings summary cs in
  Alcotest.(check bool) "finds the figure-5 conflicts" true
    (List.length findings >= 2);
  Alcotest.(check (list string)) "all are static-race findings"
    [ "static-race" ] (rule_names findings)

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)
(* ------------------------------------------------------------------ *)

let test_redundant_finish () =
  let prog = compile "var x: int = 0;\ndef main() { finish { x = 1; } }" in
  let findings = Static.Lint.run prog in
  Alcotest.(check (list string)) "flags the async-free finish"
    [ "redundant-finish" ] (rule_names findings)

let test_redundant_finish_interprocedural () =
  (* the callee joins its own async, so the caller's finish is a no-op *)
  let prog =
    compile
      "var x: int = 0;\n\
       def g() { finish { async { x = 1; } } }\n\
       def main() { finish { g(); } }"
  in
  let findings = Static.Lint.run prog in
  Alcotest.(check bool) "outer finish flagged through the call" true
    (List.mem "redundant-finish" (rule_names findings))

let test_no_redundant_finish_when_needed () =
  let prog =
    compile "var x: int = 0;\ndef main() { finish { async { x = 1; } } }"
  in
  let findings = Static.Lint.run prog in
  Alcotest.(check bool) "joining finish not flagged" false
    (List.mem "redundant-finish" (rule_names findings))

let test_dead_async () =
  let prog = compile "def main() { async { } print(1); }" in
  let findings = Static.Lint.dead_asyncs prog in
  Alcotest.(check int) "one dead async" 1 (List.length findings);
  Alcotest.(check (list string)) "rule" [ "dead-async" ] (rule_names findings)

let test_finish_coarsen () =
  let prog =
    compile
      "var x: int = 0;\nvar y: int = 0;\n\
       def main() {\n\
      \  finish { async { x = 1; } }\n\
      \  finish { async { y = 1; } }\n\
       }"
  in
  let findings = Static.Lint.coarsen_candidates prog in
  Alcotest.(check int) "adjacent finishes reported once" 1
    (List.length findings);
  List.iter
    (fun (f : Static.Finding.t) ->
      Alcotest.(check bool) "coarsening is informational" true
        (f.severity = Static.Finding.Info))
    findings

(* ------------------------------------------------------------------ *)
(* Prune unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_prune_counts () =
  let prog =
    compile
      "var x: int = 0;\nvar y: int = 0;\n\
       def main() {\n\
      \  y = 5;\n\
      \  print(y);\n\
      \  async { x = 1; }\n\
      \  print(x);\n\
       }"
  in
  let p = Static.Prune.make prog in
  Alcotest.(check bool) "some statements pruned" true
    (Static.Prune.n_kept p < Static.Prune.n_stmts p);
  Alcotest.(check bool) "some conflicts remain" true
    (Static.Prune.n_conflicts p > 0);
  (* unknown coordinates are conservatively kept *)
  Alcotest.(check bool) "unknown position kept" true
    (Static.Prune.keep p ~bid:999_999 ~idx:0);
  Alcotest.(check bool) "unknown position kept (keep_fn)" true
    (Static.Prune.keep_fn p ~bid:999_999 ~idx:0);
  Alcotest.(check bool) "negative position kept (keep_fn)" true
    (Static.Prune.keep_fn p ~bid:(-1) ~idx:(-1))

(* ------------------------------------------------------------------ *)
(* Affine disjointness unit tests                                      *)
(* ------------------------------------------------------------------ *)

let mk_loops specs : Static.Affine.loops =
  let t = Hashtbl.create 4 in
  List.iter
    (fun (sid, counter, lo, hi, step) ->
      Hashtbl.replace t sid
        { Static.Affine.counter; lo; hi; step; floc = Mhj.Loc.dummy })
    specs;
  t

let no_loop = { Static.Affine.loop = None; shared = Static.Affine.IntSet.empty }

let in_loop l =
  { Static.Affine.loop = Some l; shared = Static.Affine.IntSet.empty }

let check_ok name r = Alcotest.(check bool) name true (r = Ok ())

let check_err name e r = Alcotest.(check bool) name true (r = Error e)

let test_affine_interval () =
  let open Static.Affine in
  let loops =
    mk_loops
      [ (1, "i", Some 0, Some 3, Some 1); (2, "j", Some 4, Some 7, Some 1) ]
  in
  check_ok "0..3 vs 4..7 never meet" (disjoint loops no_loop (var 1) (var 2));
  let touching =
    mk_loops
      [ (1, "i", Some 0, Some 3, Some 1); (2, "j", Some 3, Some 7, Some 1) ]
  in
  check_err "0..3 vs 3..7 may meet at 3" May_overlap
    (disjoint touching no_loop (var 1) (var 2));
  let unbounded = mk_loops [ (1, "i", Some 0, None, Some 1) ] in
  check_err "missing hi bound" Unknown_bounds
    (disjoint unbounded no_loop (var 1) (const 9))

let test_affine_gcd () =
  let open Static.Affine in
  let loops =
    mk_loops
      [ (1, "i", Some 0, Some 3, Some 1); (2, "j", Some 0, Some 3, Some 1) ]
  in
  let even = mul (const 2) (var 1) in
  let odd = add (mul (const 2) (var 2)) (const 1) in
  check_ok "2i vs 2j+1 differ in parity" (disjoint loops no_loop even odd);
  check_err "2i vs 2j may collide" May_overlap
    (disjoint loops no_loop even (mul (const 2) (var 2)))

let test_affine_cross_iteration () =
  let open Static.Affine in
  (* canonical forasync a[i]: distinct iterations of the same loop write
     distinct cells, no bounds information needed at all *)
  let nobounds = mk_loops [ (1, "i", None, None, None) ] in
  check_ok "a[i] self-pair, unknown bounds"
    (disjoint nobounds (in_loop 1) (var 1) (var 1));
  (* stride: i walks multiples of 3, so an offset of 1 never cancels *)
  let stride3 = mk_loops [ (1, "i", Some 0, Some 9, Some 3) ] in
  check_ok "offset below the stride"
    (disjoint stride3 (in_loop 1) (var 1) (add (var 1) (const 1)));
  check_err "offset on the stride" May_overlap
    (disjoint stride3 (in_loop 1) (var 1) (add (var 1) (const 3)));
  (* span: the required delta exceeds the loop's reach *)
  let small = mk_loops [ (1, "i", Some 0, Some 2, Some 1) ] in
  check_ok "offset beyond the span"
    (disjoint small (in_loop 1) (var 1) (add (var 1) (const 5)));
  check_err "neighbouring cells overlap across iterations" May_overlap
    (disjoint small (in_loop 1) (var 1) (add (var 1) (const 1)));
  let nostep = mk_loops [ (1, "i", Some 0, Some 9, None) ] in
  check_err "missing step blocks the stride test" Unknown_bounds
    (disjoint nostep (in_loop 1) (var 1) (add (var 1) (const 1)));
  check_err "non-affine subscript" Non_affine
    (disjoint nostep (in_loop 1) Top (var 1))

(* ------------------------------------------------------------------ *)
(* Refinement through the race check                                   *)
(* ------------------------------------------------------------------ *)

let test_forasync_discharged () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish { forasync (i = 0 to 7) { a[i] = i; } }\n\
    \  print(a[0]);\n\
     }"
  in
  Alcotest.(check bool) "coarse analysis keeps the self-pair" true
    (conflicts_coarse src <> []);
  Alcotest.(check int) "refinement discharges it" 0
    (List.length (conflicts src))

let test_sibling_parity_discharged () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish {\n\
    \    forasync (i = 0 to 3) { a[2 * i] = 1; }\n\
    \    forasync (j = 0 to 3) { a[2 * j + 1] = 2; }\n\
    \  }\n\
    \  print(a[0]);\n\
     }"
  in
  Alcotest.(check bool) "coarse analysis keeps the sibling pairs" true
    (conflicts_coarse src <> []);
  Alcotest.(check int) "even/odd interleaving discharged" 0
    (List.length (conflicts src))

let test_range_split_discharged () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish {\n\
    \    forasync (i = 0 to 3) { a[i] = 1; }\n\
    \    forasync (j = 4 to 7) { a[j] = 2; }\n\
    \  }\n\
    \  print(a[0]);\n\
     }"
  in
  Alcotest.(check bool) "coarse analysis keeps the sibling pairs" true
    (conflicts_coarse src <> []);
  Alcotest.(check int) "disjoint ranges discharged" 0
    (List.length (conflicts src))

let test_racy_neighbour_kept () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish { forasync (i = 0 to 6) { a[i] = a[i + 1]; } }\n\
    \  print(a[0]);\n\
     }"
  in
  let cs = conflicts src in
  Alcotest.(check bool) "cross-iteration a[i]/a[i+1] overlap kept" true
    (cs <> []);
  Alcotest.(check bool) "kept with the may-overlap reason" true
    (List.exists
       (fun (c : Static.Racecheck.conflict) ->
         c.reason = Some Static.Affine.May_overlap)
       cs)

let test_constant_cell_kept () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish { forasync (i = 0 to 7) { a[3] = i; } }\n\
    \  print(a[0]);\n\
     }"
  in
  let cs = conflicts src in
  Alcotest.(check bool) "every iteration writes a[3]: kept" true (cs <> []);
  Alcotest.(check bool) "refined conflicts carry a reason" true
    (List.for_all
       (fun (c : Static.Racecheck.conflict) -> c.reason <> None)
       cs);
  Alcotest.(check bool) "coarse conflicts carry none" true
    (List.for_all
       (fun (c : Static.Racecheck.conflict) -> c.reason = None)
       (conflicts_coarse src))

let test_provably_disjoint_note () =
  let prog =
    compile
      "def main() {\n\
      \  val a: int[] = new int[8];\n\
      \  finish { forasync (i = 0 to 7) { a[i] = i; } }\n\
      \  print(a[0]);\n\
       }"
  in
  let summary, _, cs, notes = Static.Racecheck.check_full prog in
  Alcotest.(check int) "no surviving conflicts" 0 (List.length cs);
  Alcotest.(check bool) "the discharged pair is recorded" true (notes <> []);
  let findings = Static.Racecheck.note_findings summary notes in
  Alcotest.(check (list string)) "note rule" [ "provably-disjoint" ]
    (rule_names findings);
  List.iter
    (fun (f : Static.Finding.t) ->
      Alcotest.(check bool) "notes are informational" true
        (f.severity = Static.Finding.Info))
    findings

let test_explain_messages () =
  let src =
    "def main() {\n\
    \  val a: int[] = new int[8];\n\
    \  finish { forasync (i = 0 to 7) { a[3] = i; } }\n\
    \  print(a[0]);\n\
     }"
  in
  let _, summary, mhp = analyze src in
  let cs = Static.Racecheck.conflicts summary mhp in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let has_marker fs =
    List.exists
      (fun (f : Static.Finding.t) -> contains f.msg "[unrefined:")
      fs
  in
  Alcotest.(check bool) "--explain appends the refinement reason" true
    (has_marker (Static.Racecheck.to_findings ~explain:true summary cs));
  Alcotest.(check bool) "plain findings stay unannotated" false
    (has_marker (Static.Racecheck.to_findings summary cs))

let test_series_refined_verified () =
  match Benchsuite.Suite.find "series" with
  | None -> Alcotest.fail "series missing from the benchmark suite"
  | Some b ->
      let prog = Benchsuite.Bench.repair_program b in
      let _, _, coarse = Static.Racecheck.check ~refine:false prog in
      let _, _, refined = Static.Racecheck.check prog in
      Alcotest.(check bool) "coarse analysis leaves unproven pairs" true
        (coarse <> []);
      Alcotest.(check int) "refinement verifies series race-free" 0
        (List.length refined)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Statement ids a step may have executed: the step covers statement
   indices [origin_idx .. last_idx] of its origin block. *)
let step_sids summary tree (n : Sdpst.Node.t) =
  let lo = Sdpst.Node.origin_idx tree n in
  let hi = max lo (Sdpst.Node.last_idx tree n) in
  let bid = Sdpst.Node.origin_bid tree n in
  let rec go i acc =
    if i > hi then acc
    else
      match Static.Summary.stmt_at summary ~bid ~idx:i with
      | Some sid -> go (i + 1) (sid :: acc)
      | None -> go (i + 1) acc
  in
  go lo []

(* Differential soundness: every race the dynamic MRW detector reports is
   covered by a static MHP pair of the endpoint statements.  This is the
   property that makes --static-prune and --static-verify sound. *)
let static_mhp_covers_dynamic_races =
  QCheck.Test.make ~name:"static MHP covers every dynamic race" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = compile src in
      let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
      let summary = Static.Summary.build prog in
      let mhp = Static.Mhp.analyze prog summary in
      List.for_all
        (fun (r : Espbags.Race.t) ->
          let srcs = step_sids summary r.tree r.src in
          let sinks = step_sids summary r.tree r.sink in
          let covered =
            List.exists
              (fun a -> List.exists (fun b -> Static.Mhp.mhp mhp a b) sinks)
              srcs
          in
          if not covered then
            QCheck.Test.fail_reportf
              "seed %d: race %a not covered by any static MHP pair\n\
               src step: block %d, stmts %d..%d; sink step: block %d, stmts \
               %d..%d"
              seed Espbags.Race.pp r (Sdpst.Node.origin_bid r.tree r.src)
              (Sdpst.Node.origin_idx r.tree r.src) (Sdpst.Node.last_idx r.tree r.src)
              (Sdpst.Node.origin_bid r.tree r.sink) (Sdpst.Node.origin_idx r.tree r.sink)
              (Sdpst.Node.last_idx r.tree r.sink);
          covered)
        (Espbags.Detector.races det))

(* A race signature that is stable across runs (node ids are not). *)
let race_signature (r : Espbags.Race.t) =
  ( (Sdpst.Node.origin_bid r.tree r.src),
    (Sdpst.Node.origin_idx r.tree r.src),
    (Sdpst.Node.origin_bid r.tree r.sink),
    (Sdpst.Node.origin_idx r.tree r.sink),
    Fmt.str "%a" Rt.Addr.pp r.addr,
    Fmt.str "%a" Espbags.Race.pp_kind r.kind )

(* The dense-bitmap fast path must be the same predicate as the
   hashtable-backed [keep], on known and unknown positions alike. *)
let keep_fn_agrees_with_keep =
  QCheck.Test.make ~name:"Prune.keep_fn agrees with Prune.keep" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = compile src in
      let pr = Static.Prune.make prog in
      let fast = Static.Prune.keep_fn pr in
      let summary = Static.Summary.build prog in
      let ok = ref true in
      let check ~bid ~idx =
        if fast ~bid ~idx <> Static.Prune.keep pr ~bid ~idx then ok := false
      in
      Static.Summary.iter_positions summary (fun ~bid ~idx ~sid:_ ->
          check ~bid ~idx;
          (* just past a known position: likely unmapped, must agree too *)
          check ~bid ~idx:(idx + 1);
          check ~bid:(bid + 1) ~idx);
      check ~bid:0 ~idx:0;
      check ~bid:999_999 ~idx:3;
      if not !ok then
        QCheck.Test.fail_reportf "seed %d: keep_fn diverges from keep" seed;
      true)

(* Race-set identity under pruning: running MRW with the static keep
   predicate reports exactly the same races as the unpruned run. *)
let prune_preserves_race_set =
  QCheck.Test.make ~name:"--static-prune preserves the MRW race set"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = compile src in
      let full, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
      let pr = Static.Prune.make prog in
      let pruned, _ =
        Espbags.Detector.detect
          ~keep:(fun ~bid ~idx -> Static.Prune.keep pr ~bid ~idx)
          Espbags.Detector.Mrw prog
      in
      let sigs d =
        List.sort_uniq compare
          (List.map race_signature (Espbags.Detector.races d))
      in
      let a = sigs full and b = sigs pruned in
      if a <> b then
        QCheck.Test.fail_reportf
          "seed %d: race sets differ (full %d, pruned %d; %d accesses \
           skipped)"
          seed (List.length a) (List.length b) pruned.n_skipped;
      true)

(* Strict one-sidedness: the refined conflict set is a subset of the
   coarse one — refinement can only remove pairs, never add or move
   them, which is what lets it inherit the coarse layer's soundness. *)
let refinement_is_one_sided =
  QCheck.Test.make ~name:"refinement only ever removes conflict pairs"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = compile src in
      let summary = Static.Summary.build prog in
      let mhp = Static.Mhp.analyze prog summary in
      let key (c : Static.Racecheck.conflict) =
        (min c.sid_a c.sid_b, max c.sid_a c.sid_b)
      in
      let coarse =
        List.map key (Static.Racecheck.conflicts ~refine:false summary mhp)
      in
      List.for_all
        (fun c ->
          let covered = List.mem (key c) coarse in
          if not covered then
            QCheck.Test.fail_reportf
              "seed %d: refined pair (%d, %d) absent from the coarse set"
              seed (fst (key c)) (snd (key c));
          covered)
        (Static.Racecheck.conflicts summary mhp))

(* Differential soundness of the refinement itself: every race the MRW
   detector reports is covered by a SURVIVING refined conflict — the
   affine tests never discharge a pair that races on some input.  This
   is the acceptance property for the index-sensitive refinement; the
   @ci alias runs it over 300 generated programs. *)
let refined_conflicts_cover_dynamic_races =
  QCheck.Test.make ~name:"refined conflicts cover every dynamic race"
    ~count:(qcount 150)
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = compile src in
      let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
      let summary = Static.Summary.build prog in
      let mhp = Static.Mhp.analyze prog summary in
      let pairs = Hashtbl.create 64 in
      List.iter
        (fun (c : Static.Racecheck.conflict) ->
          Hashtbl.replace pairs (min c.sid_a c.sid_b, max c.sid_a c.sid_b) ())
        (Static.Racecheck.conflicts summary mhp);
      List.for_all
        (fun (r : Espbags.Race.t) ->
          let srcs = step_sids summary r.tree r.src in
          let sinks = step_sids summary r.tree r.sink in
          let covered =
            List.exists
              (fun a ->
                List.exists
                  (fun b -> Hashtbl.mem pairs (min a b, max a b))
                  sinks)
              srcs
          in
          if not covered then
            QCheck.Test.fail_reportf
              "seed %d: dynamic race %a was discharged by the refinement"
              seed Espbags.Race.pp r;
          covered)
        (Espbags.Detector.races det))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "static"
    [
      ( "mhp",
        [
          Alcotest.test_case "sibling asyncs" `Quick test_sibling_asyncs_mhp;
          Alcotest.test_case "finish barrier" `Quick test_finish_kills_mhp;
          Alcotest.test_case "loop self-pair" `Quick test_loop_self_pair;
          Alcotest.test_case "interprocedural escape" `Quick
            test_interprocedural_escape;
        ] );
      ( "alias",
        [
          Alcotest.test_case "aliased arrays" `Quick test_alias_conflict;
          Alcotest.test_case "disjoint allocations" `Quick
            test_disjoint_allocations_no_conflict;
          Alcotest.test_case "parameter aliasing" `Quick test_param_aliasing;
          Alcotest.test_case "verified clean" `Quick test_verified_clean;
          Alcotest.test_case "figure 5" `Quick test_figure5_static_races;
        ] );
      ( "lint",
        [
          Alcotest.test_case "redundant finish" `Quick test_redundant_finish;
          Alcotest.test_case "redundant finish, interprocedural" `Quick
            test_redundant_finish_interprocedural;
          Alcotest.test_case "needed finish kept" `Quick
            test_no_redundant_finish_when_needed;
          Alcotest.test_case "dead async" `Quick test_dead_async;
          Alcotest.test_case "finish coarsening" `Quick test_finish_coarsen;
        ] );
      ( "prune",
        [ Alcotest.test_case "counts" `Quick test_prune_counts ] );
      ( "affine",
        [
          Alcotest.test_case "interval separation" `Quick test_affine_interval;
          Alcotest.test_case "gcd residue" `Quick test_affine_gcd;
          Alcotest.test_case "cross-iteration" `Quick
            test_affine_cross_iteration;
        ] );
      ( "refine",
        [
          Alcotest.test_case "forasync discharged" `Quick
            test_forasync_discharged;
          Alcotest.test_case "even/odd siblings discharged" `Quick
            test_sibling_parity_discharged;
          Alcotest.test_case "split ranges discharged" `Quick
            test_range_split_discharged;
          Alcotest.test_case "racy neighbour kept" `Quick
            test_racy_neighbour_kept;
          Alcotest.test_case "constant cell kept" `Quick
            test_constant_cell_kept;
          Alcotest.test_case "provably-disjoint note" `Quick
            test_provably_disjoint_note;
          Alcotest.test_case "explain messages" `Quick test_explain_messages;
          Alcotest.test_case "series verified" `Quick
            test_series_refined_verified;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            static_mhp_covers_dynamic_races;
            keep_fn_agrees_with_keep;
            prune_preserves_race_set;
            refinement_is_one_sided;
            refined_conflicts_cover_dynamic_races;
          ] );
    ]
