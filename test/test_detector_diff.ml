(* Differential suite for the dense-shadow detector rewrite.

   Oracles.Reference is the seed implementation, kept verbatim as the
   golden oracle; Espbags.Detector is the optimized hot path (interned
   addresses, flat shadow tables, array union-find, epoch-deduped MRW,
   packed race records).  The rewrite claims representation changes only
   — so on every generated program the two must report the {e same race
   records}, and because the interpreter is deterministic the comparison
   can be exact and ordered, not just a multiset check.

   The grid (now built on Diff_harness, shared with the vector-clock
   suite in test_vclock.ml):
   - SRW and MRW: new vs seed, ordered record identity plus access
     counters;
   - MRW under --static-prune (Static.Prune.keep_fn) vs unpruned seed:
     same multiset (pruning may only skip statements proven race-free,
     never change what is reported).

   `dune runtest` uses a bounded number of programs; the @ci alias runs
   the deep pass (TDR_QCHECK_COUNT=300).  Seeds are the qcheck input, so
   failures replay exactly. *)

let tests =
  Diff_harness.diff_tests
    ~backends:[ Diff_harness.espbags ]
    ~modes:[ Espbags.Detector.Srw; Espbags.Detector.Mrw ]
    ~prunes:[ false ] ()
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.espbags ]
      ~modes:[ Espbags.Detector.Mrw ]
      ~prunes:[ true ] ()
  (* Memory-bounded paths (DESIGN.md §15): tiny chunks force the
     multi-chunk shadow slab, a 2-record spill cap forces the on-disk
     race round-trip.  Reports must stay byte-identical. *)
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.espbags_chunked; Diff_harness.espbags_spilled ]
      ~modes:[ Espbags.Detector.Srw; Espbags.Detector.Mrw ]
      ~prunes:[ false ] ()
  @ Diff_harness.diff_tests
      ~backends:[ Diff_harness.espbags_spilled ]
      ~modes:[ Espbags.Detector.Mrw ]
      ~prunes:[ true ] ()
  (* The distinct step pairs placement reads off the packed buffer (and
     the spill file, whose records come first) against the deduped
     materialized races, on both backends. *)
  @ Diff_harness.pairs_tests ()

let () =
  Alcotest.run "detector-diff"
    [ ("differential", List.map QCheck_alcotest.to_alcotest tests) ]
