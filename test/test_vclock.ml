(* Vector-clock detection backend (lib/vclock): Clock unit tests, the
   sequential detector's differential against the ESP-bags seed oracle
   (via Diff_harness — both SRW and MRW, with and without static
   pruning), backend auto-selection, and the stats keys both sequential
   detectors report.

   `dune runtest` bounds the program count; the @ci alias runs the
   300-program deep pass (TDR_QCHECK_COUNT=300). *)

let compile = Mhj.Front.compile

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_basics () =
  let c = Vclock.Clock.create () in
  Alcotest.(check int) "fresh reads 0" 0 (Vclock.Clock.get c 5);
  Vclock.Clock.set c 3 7;
  Alcotest.(check int) "set/get" 7 (Vclock.Clock.get c 3);
  Alcotest.(check int) "beyond length reads 0" 0 (Vclock.Clock.get c 100);
  Vclock.Clock.incr c 3;
  Alcotest.(check int) "incr" 8 (Vclock.Clock.get c 3);
  Vclock.Clock.incr c 60;
  Alcotest.(check int) "incr grows from 0" 1 (Vclock.Clock.get c 60);
  Alcotest.(check bool) "covers equal" true (Vclock.Clock.covers c 3 8);
  Alcotest.(check bool) "covers below" true (Vclock.Clock.covers c 3 1);
  Alcotest.(check bool) "not covers above" false (Vclock.Clock.covers c 3 9);
  Alcotest.(check bool) "covers zero anywhere" true
    (Vclock.Clock.covers c 999 0)

let test_clock_copy_independent () =
  let a = Vclock.Clock.create () in
  Vclock.Clock.set a 1 4;
  let b = Vclock.Clock.copy a in
  Vclock.Clock.incr b 1;
  Vclock.Clock.set b 9 2;
  Alcotest.(check int) "copy sees original" 5 (Vclock.Clock.get b 1);
  Alcotest.(check int) "original untouched" 4 (Vclock.Clock.get a 1);
  Alcotest.(check int) "original not grown" 0 (Vclock.Clock.get a 9)

let test_clock_merge () =
  let a = Vclock.Clock.create () and b = Vclock.Clock.create () in
  Vclock.Clock.set a 0 3;
  Vclock.Clock.set a 2 1;
  Vclock.Clock.set b 0 2;
  Vclock.Clock.set b 4 9;
  Vclock.Clock.merge ~into:a b;
  Alcotest.(check int) "pointwise max keeps larger" 3 (Vclock.Clock.get a 0);
  Alcotest.(check int) "untouched slot survives" 1 (Vclock.Clock.get a 2);
  Alcotest.(check int) "merge grows" 9 (Vclock.Clock.get a 4);
  (* merge must give a's clock every entry b covers: the join rule *)
  for i = 0 to 5 do
    if Vclock.Clock.covers b i (Vclock.Clock.get b i) then
      Alcotest.(check bool)
        (Fmt.str "a covers b's slot %d" i)
        true
        (Vclock.Clock.covers a i (Vclock.Clock.get b i))
  done

(* Fork/join happens-before through the detector's own transitions:
   parent epochs before a fork are covered by the child (inherited),
   the parent's post-fork epoch is not (concurrent), and a finish-end
   merge restores coverage. *)
let test_clock_happens_before () =
  let det = Vclock.Seq.make Vclock.Seq.Mrw in
  let m = det.Vclock.Seq.monitor in
  let cur () = Vclock.Seq.Order.cur det.Vclock.Seq.order in
  let n = Sdpst.Node.root in
  m.Rt.Monitor.on_task_begin n;
  (* root = task 0 *)
  m.Rt.Monitor.on_finish_begin n;
  let root_clock = cur () in
  let pre_fork = Vclock.Clock.get root_clock 0 in
  m.Rt.Monitor.on_task_begin n;
  (* child = task 1 *)
  let child_clock = cur () in
  Alcotest.(check bool) "child covers parent's pre-fork epoch" true
    (Vclock.Clock.covers child_clock 0 pre_fork);
  let post_fork = Vclock.Clock.get root_clock 0 in
  Alcotest.(check bool) "fork bumped the parent's epoch" true
    (post_fork > pre_fork);
  Alcotest.(check bool) "child does not cover post-fork epoch" false
    (Vclock.Clock.covers child_clock 0 post_fork);
  let child_epoch = Vclock.Clock.get child_clock 1 in
  m.Rt.Monitor.on_task_end n;
  (* back in the root: the child ended but its finish is still open *)
  Alcotest.(check bool) "parent does not cover unjoined child" false
    (Vclock.Clock.covers (cur ()) 1 child_epoch);
  m.Rt.Monitor.on_finish_end n;
  Alcotest.(check bool) "join merges the child's epoch" true
    (Vclock.Clock.covers (cur ()) 1 child_epoch)

(* ------------------------------------------------------------------ *)
(* Sequential differential vs the ESP-bags seed oracle                 *)
(* ------------------------------------------------------------------ *)

let diff_tests =
  Diff_harness.diff_tests
    ~backends:[ Diff_harness.vclock ]
    ~modes:[ Espbags.Detector.Srw; Espbags.Detector.Mrw ]
    ~prunes:[ false ] ()
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.vclock ]
      ~modes:[ Espbags.Detector.Srw; Espbags.Detector.Mrw ]
      ~prunes:[ true ] ()
  (* Memory-bounded paths (DESIGN.md §15): tiny chunks force the
     multi-chunk shadow slab, a 2-record spill cap forces the on-disk
     race round-trip.  Reports must stay byte-identical. *)
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.vclock_chunked; Diff_harness.vclock_spilled ]
      ~modes:[ Espbags.Detector.Srw; Espbags.Detector.Mrw ]
      ~prunes:[ false ] ()
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.vclock_spilled ]
      ~modes:[ Espbags.Detector.Mrw ]
      ~prunes:[ true ] ()

(* ------------------------------------------------------------------ *)
(* Backend auto-selection                                              *)
(* ------------------------------------------------------------------ *)

let test_select () =
  let choice src =
    fst (Vclock.Select.choose (compile src))
  in
  Alcotest.(check string) "no tasks -> espbags" "espbags"
    (Fmt.str "%a" Vclock.Select.pp_choice
       (choice "def main() { print(1); }"));
  Alcotest.(check string) "loop fan-out -> vclock" "vclock"
    (Fmt.str "%a" Vclock.Select.pp_choice
       (choice
          "var g: int[] = new int[8];\n\
           def main() { finish { for (i = 0 to 7) { async { g[i] = i; } } } }"));
  Alcotest.(check string) "deep nesting -> espbags" "espbags"
    (Fmt.str "%a" Vclock.Select.pp_choice
       (choice
          "var g: int[] = new int[4];\n\
           def main() {\n\
          \  finish { async { async { async { g[0] = 1; } } } }\n\
           }"));
  let _, reason =
    Vclock.Select.choose (compile "def main() { async { print(1); } }")
  in
  Alcotest.(check bool) "reason is non-empty" true (String.length reason > 0)

(* The one [--backend] resolver: explicit picks pass through with no
   reason, [`Auto] is [choose]. *)
let test_resolve () =
  let prog = compile "def main() { async { print(1); } }" in
  let show (pick, reason) = (Fmt.str "%a" Vclock.Select.pp_choice pick, reason) in
  let resolve b = show (Vclock.Select.resolve b prog) in
  let check = Alcotest.(check (pair string string)) in
  check "espbags" ("espbags", "") (resolve `Espbags);
  check "vclock" ("vclock", "") (resolve `Vclock);
  check "auto is choose" (show (Vclock.Select.choose prog)) (resolve `Auto)

(* ------------------------------------------------------------------ *)
(* Stats contract                                                      *)
(* ------------------------------------------------------------------ *)

let racy_src =
  "var g: int[] = new int[8];\n\
   var sum: int = 0;\n\
   def main() {\n\
  \  finish {\n\
  \    for (i = 0 to 7) {\n\
  \      async { g[i] = i; sum = sum + i; }\n\
  \    }\n\
  \  }\n\
  \  print(sum);\n\
   }"

(* Both sequential backends through the driver-facing stats contract:
   each emits exactly this ordered key list, in both flavours.  The
   metrics registry and perfbench's per-layer counters read these keys
   by name, so a dropped or renamed key would otherwise surface only as
   a silent 0. *)
let test_seq_stats_keys () =
  let prog = compile racy_src in
  let shared_head =
    [ "accesses"; "locations"; "races"; "skipped" ]
  in
  let expect_espbags =
    shared_head
    @ [ "uf_finds"; "uf_unions"; "scan_entries"; "shadow_slabs";
        "shadow_words"; "gc_retired"; "spilled_races" ]
  and expect_vclock =
    shared_head
    @ [ "tasks"; "clock_merges"; "scan_entries"; "shadow_slabs";
        "shadow_words"; "gc_retired"; "clocks_freed"; "spilled_races" ]
  in
  let check name expected stats =
    Alcotest.(check (list string))
      (name ^ " keys")
      (List.map (fun k -> "detector." ^ k) expected)
      (List.map fst stats)
  in
  List.iter
    (fun mode ->
      let det, _ = Espbags.Detector.detect mode prog in
      check "espbags" expect_espbags (Espbags.Detector.stats det);
      let det, _ = Vclock.Seq.detect mode prog in
      let stats = Vclock.Seq.stats det in
      check "vclock" expect_vclock stats;
      Alcotest.(check bool) "saw tasks" true
        (List.assoc "detector.tasks" stats >= 9))
    [ Espbags.Detector.Srw; Espbags.Detector.Mrw ]

let () =
  Alcotest.run "vclock"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "copy is independent" `Quick
            test_clock_copy_independent;
          Alcotest.test_case "merge is pointwise max" `Quick test_clock_merge;
          Alcotest.test_case "fork/join happens-before" `Quick
            test_clock_happens_before;
        ] );
      ("differential", List.map QCheck_alcotest.to_alcotest diff_tests);
      ( "select",
        [
          Alcotest.test_case "heuristic" `Quick test_select;
          Alcotest.test_case "resolve" `Quick test_resolve;
        ] );
      ( "stats",
        [
          Alcotest.test_case "sequential detector keys" `Quick
            test_seq_stats_keys;
        ] );
    ]
