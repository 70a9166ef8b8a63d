(* `bench detector`: per-access overhead of the race detectors on the
   Table 1 suite (finish-stripped, repair input sizes) — a three-way
   shootout between the seed implementation, the ESP-bags hot path and
   the vector-clock backend.

   For each benchmark the sweep times the configurations of the same
   deterministic execution: uninstrumented (nop), ESP-bags SRW and MRW,
   MRW with the static prune pre-pass (`--static-prune`,
   Static.Prune.keep_fn), the seed MRW implementation kept in
   Oracles.Reference — hashtable bags, boxed-address shadow, per-access
   allocation — as the "before" side, and vector-clock SRW and MRW
   (Vclock.Seq, same packed shadow, concurrency decided by clock
   coverage instead of bags).

   The headline metric is detection throughput: monitored accesses per
   second of detector work, where detector work is the run's time minus
   the uninstrumented (nop) run of the same program — i.e. the per-access
   cost the detector itself adds.  (Total-run times are also recorded; on
   interpreter-bound programs they dilute any detector change with
   constant interpretation cost.)  The speedup columns are the ratios of
   ESP-bags and vector-clock detection throughput to the seed's.

   The interpreter is deterministic, so S-DPST node ids are stable across
   runs; the sweep asserts the sequential detectors' race reports
   byte-identical (same order, same (src, sink, addr, kind) records —
   Espbags.Race.exact_sigs) to the seed's for both SRW and MRW, and the
   pruned run's race multiset identical to the unpruned one.  Any
   mismatch aborts rather than print a corrupt table.

   Timing discipline: minimum of TDR_BENCH_REPEAT timed runs (default 5,
   plus a warmup), with a [Gc.full_major] before every configuration so
   one configuration's garbage is not collected on another's clock.

   Knobs (Harness): TDR_BENCH_REPEAT, TDR_BENCH_SUITE,
   TDR_BENCH_MIN_SPEEDUP, TDR_BENCH_OUT.  The quick variant (`bench
   detector-quick`, @ci) times the same way and keeps all the race-set
   identity assertions. *)

let suite () =
  Harness.suite ~sweep:"detector"
    (fun (b : Benchsuite.Bench.t) -> b.name)
    Benchsuite.Suite.all

type row = {
  name : string;
  accesses : int;
  races : int;
  nop : Harness.sample;  (** uninstrumented baseline *)
  srw : Harness.sample;
  mrw : Harness.sample;
  analysis_s : float;  (** Static.Prune.make, paid once per program *)
  mrw_pruned_s : float;
  skipped : int;
  ref_srw : Harness.sample;
  ref_mrw : Harness.sample;
  vc_srw : Harness.sample;
  vc_mrw : Harness.sample;
}

(* Detection time: run minus uninstrumented baseline, [None] below the
   noise floor (Harness): on interpreter-bound programs the run-to-run
   variance of the baseline itself can exceed the detector's
   contribution.  Such columns are printed as n/a, written as null and
   excluded from the summary speedups. *)
let det r t = Option.get (Harness.det_time t r.nop)

let mrw_aps r = Harness.rate r.accesses r.mrw r.nop

let vc_mrw_aps r = Harness.rate r.accesses r.vc_mrw r.nop

let ref_mrw_aps r = Harness.rate r.accesses r.ref_mrw r.nop

(* Ratio of two columns' detection times, when both are measurements. *)
let ratio r ~seed t =
  match (Harness.det_time seed r.nop, Harness.det_time t r.nop) with
  | Some a, Some b -> Some (a /. b)
  | _ -> None

let mrw_speedup r = ratio r ~seed:r.ref_mrw r.mrw

let vc_mrw_speedup r = ratio r ~seed:r.ref_mrw r.vc_mrw

(* Both sides' detection time above the noise floor? *)
let row_measurable r = Option.is_some (mrw_speedup r)

let vc_row_measurable r = Option.is_some (vc_mrw_speedup r)

let measure ~warmup ~repeat (b : Benchsuite.Bench.t) : row =
  let prog = Benchsuite.Bench.stripped_program b in
  (* The configurations are timed in interleaved rounds (every
     configuration once per round, minimum over rounds) rather than
     back-to-back: heap size and allocator state drift over a long bench
     process, and interleaving exposes every configuration to the same
     drift instead of letting it bias whichever ran last.  A full major
     collection before each run keeps one configuration's garbage off
     another's clock. *)
  let once f =
    Gc.full_major ();
    let r, s = Obs.Clock.time f in
    ignore (Sys.opaque_identity r);
    s
  in
  let pr = Static.Prune.make prog in
  let nop () = ignore (Rt.Interp.run prog) in
  let srw_f () = fst (Espbags.Detector.detect Espbags.Detector.Srw prog) in
  let mrw_f () = fst (Espbags.Detector.detect Espbags.Detector.Mrw prog) in
  let analysis () = ignore (Static.Prune.make prog) in
  let pruned_f () =
    fst
      (Espbags.Detector.detect
         ~keep:(Static.Prune.keep_fn pr)
         Espbags.Detector.Mrw prog)
  in
  let ref_srw_f () = fst (Oracles.Reference.detect Espbags.Detector.Srw prog) in
  let ref_mrw_f () = fst (Oracles.Reference.detect Espbags.Detector.Mrw prog) in
  let vc_srw_f () = fst (Vclock.Seq.detect Vclock.Seq.Srw prog) in
  let vc_mrw_f () = fst (Vclock.Seq.detect Vclock.Seq.Mrw prog) in
  for _ = 1 to warmup do
    nop ();
    ignore (srw_f ());
    ignore (mrw_f ());
    ignore (pruned_f ());
    ignore (ref_srw_f ());
    ignore (ref_mrw_f ());
    ignore (vc_srw_f ());
    ignore (vc_mrw_f ())
  done;
  let nop_t = Harness.sample ()
  and srw_t = Harness.sample ()
  and mrw_t = Harness.sample ()
  and analysis_t = Harness.sample ()
  and pruned_t = Harness.sample ()
  and ref_srw_t = Harness.sample ()
  and ref_mrw_t = Harness.sample ()
  and vc_srw_t = Harness.sample ()
  and vc_mrw_t = Harness.sample () in
  let time t f = Harness.record t (once f) in
  for _ = 1 to max 1 repeat do
    time nop_t nop;
    time srw_t (fun () -> ignore (srw_f ()));
    time mrw_t (fun () -> ignore (mrw_f ()));
    time analysis_t analysis;
    time pruned_t (fun () -> ignore (pruned_f ()));
    time ref_srw_t (fun () -> ignore (ref_srw_f ()));
    time ref_mrw_t (fun () -> ignore (ref_mrw_f ()));
    time vc_srw_t (fun () -> ignore (vc_srw_f ()));
    time vc_mrw_t (fun () -> ignore (vc_mrw_f ()))
  done;
  let identical = Harness.identical ~sweep:"detector" b.name in
  let srw = srw_f ()
  and mrw = mrw_f ()
  and pruned = pruned_f ()
  and ref_srw = ref_srw_f ()
  and ref_mrw = ref_mrw_f ()
  and vc_srw = vc_srw_f ()
  and vc_mrw = vc_mrw_f () in
  identical "ESP-bags SRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races srw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_srw));
  identical "ESP-bags MRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races mrw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_mrw));
  identical "vclock SRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_srw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_srw));
  identical "vclock MRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_mrw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_mrw));
  identical "MRW vs pruned MRW"
    (List.sort compare (Espbags.Race.exact_sigs (Espbags.Detector.races mrw)))
    (List.sort compare
       (Espbags.Race.exact_sigs (Espbags.Detector.races pruned)));
  {
    name = b.name;
    accesses = mrw.Espbags.Detector.n_accesses;
    races = Espbags.Detector.race_count mrw;
    nop = nop_t;
    srw = srw_t;
    mrw = mrw_t;
    analysis_s = analysis_t.best;
    mrw_pruned_s = pruned_t.best;
    skipped = pruned.Espbags.Detector.n_skipped;
    ref_srw = ref_srw_t;
    ref_mrw = ref_mrw_t;
    vc_srw = vc_srw_t;
    vc_mrw = vc_mrw_t;
  }

(* Summaries over the rows where every column involved is a measurement;
   [None] when no row qualifies. *)
let total_ratio rows num den =
  if rows = [] then None
  else
    let total f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
    Some (total num /. total den)

let geomean rows f =
  if rows = [] then None
  else
    Some
      (exp
         (List.fold_left (fun acc r -> acc +. log (Option.get (f r))) 0. rows
         /. float_of_int (List.length rows)))

let srw_speedup r = ratio r ~seed:r.ref_srw r.srw

let report ~repeat rows =
  let module J = Obs.Json in
  let m = Harness.measured in
  let row_json r =
    J.Obj
      [
        ("name", J.Str r.name);
        ("accesses", J.Int r.accesses);
        ("races", J.Int r.races);
        ("nop_s", J.Float r.nop.best);
        ("srw_s", J.Float r.srw.best);
        ("mrw_s", J.Float r.mrw.best);
        ("prune_analysis_s", J.Float r.analysis_s);
        ("mrw_pruned_s", J.Float r.mrw_pruned_s);
        ("skipped_accesses", J.Int r.skipped);
        ("ref_srw_s", J.Float r.ref_srw.best);
        ("ref_mrw_s", J.Float r.ref_mrw.best);
        ("vc_srw_s", J.Float r.vc_srw.best);
        ("vc_mrw_s", J.Float r.vc_mrw.best);
        ("mrw_det_accesses_per_s", m (mrw_aps r));
        ("vc_mrw_det_accesses_per_s", m (vc_mrw_aps r));
        ("ref_mrw_det_accesses_per_s", m (ref_mrw_aps r));
        ("mrw_speedup_vs_seed", m (mrw_speedup r));
        ("vc_mrw_speedup_vs_seed", m (vc_mrw_speedup r));
        ("mrw_overhead", Harness.ratio (r.mrw.best /. r.nop.best));
        ("ref_mrw_overhead", Harness.ratio (r.ref_mrw.best /. r.nop.best));
        ("measurable", J.Bool (row_measurable r));
        ("vc_measurable", J.Bool (vc_row_measurable r));
      ]
  in
  let mrows = List.filter row_measurable rows in
  let vrows = List.filter vc_row_measurable rows in
  let srows = List.filter (fun r -> Option.is_some (srw_speedup r)) rows in
  let accesses r = float_of_int r.accesses in
  J.Obj
    [
      ("repeat", J.Int repeat);
      ("measured_rows", J.Int (List.length mrows));
      ("vc_measured_rows", J.Int (List.length vrows));
      ( "aggregate_mrw_speedup_vs_seed",
        m (total_ratio mrows (fun r -> det r r.ref_mrw) (fun r -> det r r.mrw))
      );
      ( "aggregate_vc_mrw_speedup_vs_seed",
        m
          (total_ratio vrows
             (fun r -> det r r.ref_mrw)
             (fun r -> det r r.vc_mrw)) );
      ( "total_accesses",
        J.Int (List.fold_left (fun acc r -> acc + r.accesses) 0 mrows) );
      ( "aggregate_mrw_det_accesses_per_s",
        m (total_ratio mrows accesses (fun r -> det r r.mrw)) );
      ( "aggregate_vc_mrw_det_accesses_per_s",
        m (total_ratio vrows accesses (fun r -> det r r.vc_mrw)) );
      ( "aggregate_ref_mrw_det_accesses_per_s",
        m (total_ratio mrows accesses (fun r -> det r r.ref_mrw)) );
      ("geomean_mrw_speedup_vs_seed", m (geomean mrows mrw_speedup));
      ("geomean_vc_mrw_speedup_vs_seed", m (geomean vrows vc_mrw_speedup));
      ("geomean_srw_speedup_vs_seed", m (geomean srows srw_speedup));
      ("rows", J.List (List.map row_json rows));
    ]

let sweep ~quick () =
  (* Quick mode times like the full sweep: with the interpreter baseline
     a few milliseconds on small programs, a single cold run can land a
     detection time anywhere above the noise floor. *)
  let repeat = max 1 (Harness.env_int "TDR_BENCH_REPEAT" 5) in
  let warmup = 1 in
  Fmt.pr "== detector shootout: seed / ESP-bags / vector clocks ==@.";
  Fmt.pr
    "(speedups in accesses/sec of detection time = run minus \
     uninstrumented baseline)@.";
  Fmt.pr "%-14s %10s %6s %9s %9s %9s %9s %8s %8s@." "benchmark" "accesses"
    "races" "nop(ms)" "seed(ms)" "mrw(ms)" "vc(ms)" "mrw-spd" "vc-spd";
  let rows =
    List.map
      (fun b ->
        let r = measure ~warmup ~repeat b in
        let spd = function Some v -> Fmt.str "%7.2fx" v | None -> "    n/a" in
        Fmt.pr "%-14s %10d %6d %9.2f %9.2f %9.2f %9.2f %s %s@." r.name
          r.accesses r.races (1e3 *. r.nop.best) (1e3 *. r.ref_mrw.best)
          (1e3 *. r.mrw.best) (1e3 *. r.vc_mrw.best)
          (spd (mrw_speedup r)) (spd (vc_mrw_speedup r));
        r)
      (suite ())
  in
  let mrows = List.filter row_measurable rows in
  let vrows = List.filter vc_row_measurable rows in
  let agg = total_ratio mrows (fun r -> det r r.ref_mrw) (fun r -> det r r.mrw) in
  let vc_agg =
    total_ratio vrows (fun r -> det r r.ref_mrw) (fun r -> det r r.vc_mrw)
  in
  let x = function Some v -> Fmt.str "%.2fx" v | None -> "n/a" in
  Fmt.pr
    "race sets byte-identical to the seed on all %d benchmark(s); MRW \
     speedup vs seed over the %d with measurable detection time: %s \
     aggregate, %s geomean; vclock MRW over %d: %s aggregate, %s geomean@."
    (List.length rows) (List.length mrows) (x agg)
    (x (geomean mrows mrw_speedup))
    (List.length vrows) (x vc_agg)
    (x (geomean vrows vc_mrw_speedup));
  (* Guard against the observability hooks (PR 5) creeping into the MRW
     hot loop: with tracing disabled the instrumented detector must stay
     faster than the seed implementation.  The floor is deliberately loose
     (1.0x by default, i.e. "at least as fast as the seed", far below the
     steady-state speedup) because CI machines are noisy and quick mode
     times only five rounds; TDR_BENCH_MIN_SPEEDUP overrides it.  Skipped
     entirely when no row's detection time is above the noise floor. *)
  (match agg with
  | Some agg ->
      let floor = Harness.env_float "TDR_BENCH_MIN_SPEEDUP" 1.0 in
      if agg < floor then
        failwith
          (Fmt.str
             "detector bench: aggregate MRW speedup vs seed %.2fx is below \
              the %.2fx floor (TDR_BENCH_MIN_SPEEDUP) — instrumentation \
              overhead regression?"
             agg floor)
  | None -> ());
  Harness.write ~quick "detector" (report ~repeat rows)

let run () = sweep ~quick:false ()

let run_quick () = sweep ~quick:true ()
