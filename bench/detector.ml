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

   Environment knobs: TDR_BENCH_REPEAT, TDR_BENCH_SUITE
   (comma-separated benchmark names; default all),
   TDR_BENCH_DETECTOR_JSON (default BENCH_detector.json; "-" disables).
   The quick variant (`bench detector-quick`, @ci) times the same way but
   writes the JSON only when TDR_BENCH_DETECTOR_JSON is set explicitly,
   keeping all the race-set identity assertions. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

let suite () =
  match Sys.getenv_opt "TDR_BENCH_SUITE" with
  | None | Some "" -> Benchsuite.Suite.all
  | Some spec -> (
      let names = String.split_on_char ',' spec in
      match
        List.filter
          (fun (b : Benchsuite.Bench.t) -> List.mem b.name names)
          Benchsuite.Suite.all
      with
      | [] ->
          failwith
            (Fmt.str
               "detector bench: TDR_BENCH_SUITE=%S matches no benchmark \
                (try 'tdrepair benchmarks')"
               spec)
      | bs -> bs)

type row = {
  name : string;
  accesses : int;
  races : int;
  nop : Clock.sample;  (** uninstrumented baseline *)
  srw : Clock.sample;
  mrw : Clock.sample;
  analysis_s : float;  (** Static.Prune.make, paid once per program *)
  mrw_pruned_s : float;
  skipped : int;
  ref_srw : Clock.sample;
  ref_mrw : Clock.sample;
  vc_srw : Clock.sample;
  vc_mrw : Clock.sample;
}

(* Detection time: run minus uninstrumented baseline, [None] below the
   noise floor (Clock): on interpreter-bound programs the run-to-run
   variance of the baseline itself can exceed the detector's
   contribution.  Such columns are printed as n/a, written as null and
   excluded from the summary speedups. *)
let det r t = Option.get (Clock.det_time t r.nop)

let mrw_aps r = Clock.rate r.accesses r.mrw r.nop

let vc_mrw_aps r = Clock.rate r.accesses r.vc_mrw r.nop

let ref_mrw_aps r = Clock.rate r.accesses r.ref_mrw r.nop

(* Ratio of two columns' detection times, when both are measurements. *)
let ratio r ~seed t =
  match (Clock.det_time seed r.nop, Clock.det_time t r.nop) with
  | Some a, Some b -> Some (a /. b)
  | _ -> None

let mrw_speedup r = ratio r ~seed:r.ref_mrw r.mrw

let vc_mrw_speedup r = ratio r ~seed:r.ref_mrw r.vc_mrw

(* Both sides' detection time above the noise floor? *)
let row_measurable r = Option.is_some (mrw_speedup r)

let vc_row_measurable r = Option.is_some (vc_mrw_speedup r)

let identical name what a b =
  if a <> b then
    failwith
      (Fmt.str "detector bench: %s: %s race records differ (%d vs %d) — \
                detector bug"
         name what (List.length a) (List.length b))

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
    let r, s = Clock.time f in
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
  let nop_t = Clock.sample ()
  and srw_t = Clock.sample ()
  and mrw_t = Clock.sample ()
  and analysis_t = Clock.sample ()
  and pruned_t = Clock.sample ()
  and ref_srw_t = Clock.sample ()
  and ref_mrw_t = Clock.sample ()
  and vc_srw_t = Clock.sample ()
  and vc_mrw_t = Clock.sample () in
  let time t f = Clock.record t (once f) in
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
  let srw = srw_f ()
  and mrw = mrw_f ()
  and pruned = pruned_f ()
  and ref_srw = ref_srw_f ()
  and ref_mrw = ref_mrw_f ()
  and vc_srw = vc_srw_f ()
  and vc_mrw = vc_mrw_f () in
  identical b.name "ESP-bags SRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races srw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_srw));
  identical b.name "ESP-bags MRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races mrw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_mrw));
  identical b.name "vclock SRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_srw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_srw));
  identical b.name "vclock MRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_mrw))
    (Espbags.Race.exact_sigs (Oracles.Reference.races ref_mrw));
  identical b.name "MRW vs pruned MRW"
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

let json_of_rows ~repeat rows =
  let buf = Buffer.create 2048 in
  let opt3 = Clock.json_opt "%.3f" and opt0 = Clock.json_opt "%.0f" in
  let row_json r =
    Fmt.str
      "    {\"name\": %S, \"accesses\": %d, \"races\": %d, \"nop_s\": %.6f, \
       \"srw_s\": %.6f, \"mrw_s\": %.6f, \"prune_analysis_s\": %.6f, \
       \"mrw_pruned_s\": %.6f, \"skipped_accesses\": %d, \"ref_srw_s\": \
       %.6f, \"ref_mrw_s\": %.6f, \"vc_srw_s\": %.6f, \"vc_mrw_s\": %.6f, \
       \"mrw_det_accesses_per_s\": %s, \
       \"vc_mrw_det_accesses_per_s\": %s, \
       \"ref_mrw_det_accesses_per_s\": %s, \"mrw_speedup_vs_seed\": %s, \
       \"vc_mrw_speedup_vs_seed\": %s, \"mrw_overhead\": %.3f, \
       \"ref_mrw_overhead\": %.3f, \"measurable\": %b, \"vc_measurable\": \
       %b}"
      r.name r.accesses r.races r.nop.best r.srw.best r.mrw.best r.analysis_s
      r.mrw_pruned_s r.skipped r.ref_srw.best r.ref_mrw.best r.vc_srw.best
      r.vc_mrw.best
      (opt0 (mrw_aps r)) (opt0 (vc_mrw_aps r)) (opt0 (ref_mrw_aps r))
      (opt3 (mrw_speedup r)) (opt3 (vc_mrw_speedup r))
      (r.mrw.best /. r.nop.best) (r.ref_mrw.best /. r.nop.best)
      (row_measurable r) (vc_row_measurable r)
  in
  let mrows = List.filter row_measurable rows in
  let vrows = List.filter vc_row_measurable rows in
  let srows = List.filter (fun r -> Option.is_some (srw_speedup r)) rows in
  let accesses r = float_of_int r.accesses in
  let field name fmt v = Buffer.add_string buf (Fmt.str "  \"%s\": %s,\n" name (fmt v)) in
  Buffer.add_string buf "{\n";
  field "repeat" string_of_int repeat;
  field "measured_rows" string_of_int (List.length mrows);
  field "vc_measured_rows" string_of_int (List.length vrows);
  field "aggregate_mrw_speedup_vs_seed" opt3
    (total_ratio mrows (fun r -> det r r.ref_mrw) (fun r -> det r r.mrw));
  field "aggregate_vc_mrw_speedup_vs_seed" opt3
    (total_ratio vrows (fun r -> det r r.ref_mrw) (fun r -> det r r.vc_mrw));
  field "total_accesses" (Fmt.str "%.0f")
    (List.fold_left (fun acc r -> acc +. accesses r) 0. mrows);
  field "aggregate_mrw_det_accesses_per_s" opt0
    (total_ratio mrows accesses (fun r -> det r r.mrw));
  field "aggregate_vc_mrw_det_accesses_per_s" opt0
    (total_ratio vrows accesses (fun r -> det r r.vc_mrw));
  field "aggregate_ref_mrw_det_accesses_per_s" opt0
    (total_ratio mrows accesses (fun r -> det r r.ref_mrw));
  field "geomean_mrw_speedup_vs_seed" opt3 (geomean mrows mrw_speedup);
  field "geomean_vc_mrw_speedup_vs_seed" opt3 (geomean vrows vc_mrw_speedup);
  field "geomean_srw_speedup_vs_seed" opt3 (geomean srows srw_speedup);
  Buffer.add_string buf "  \"rows\": [\n";
  Buffer.add_string buf (String.concat ",\n" (List.map row_json rows));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let sweep ~quick () =
  (* Quick mode times like the full sweep: with the interpreter baseline
     a few milliseconds on small programs, a single cold run can land a
     detection time anywhere above the noise floor. *)
  let repeat = max 1 (env_int "TDR_BENCH_REPEAT" 5) in
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
      let floor = env_float "TDR_BENCH_MIN_SPEEDUP" 1.0 in
      if agg < floor then
        failwith
          (Fmt.str
             "detector bench: aggregate MRW speedup vs seed %.2fx is below \
              the %.2fx floor (TDR_BENCH_MIN_SPEEDUP) — instrumentation \
              overhead regression?"
             agg floor)
  | None -> ());
  (* Quick mode writes the JSON only on explicit request (the @ci alias
     must not litter the build dir), full mode by default. *)
  let json_dest =
    match Sys.getenv_opt "TDR_BENCH_DETECTOR_JSON" with
    | Some "-" -> None
    | Some path -> Some path
    | None -> if quick then None else Some "BENCH_detector.json"
  in
  match json_dest with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of_rows ~repeat rows);
      close_out oc;
      Fmt.pr "[detector data written to %s]@." path

let run () = sweep ~quick:false ()

(* CI variant: JSON only when TDR_BENCH_DETECTOR_JSON is set; the
   race-set identity assertions (ESP-bags and vclock vs seed, pruned vs
   unpruned) still run on the whole suite. *)
let run_quick () = sweep ~quick:true ()
