(* Static-prune ablation: detection time with and without the static MHP
   pre-pass (`tdrepair detect --static-prune`), per benchmark, and the
   coarse-vs-index-sensitive refinement ablation.

   For each benchmark (finish-stripped, repair input sizes) the sweep
   runs the MRW detector three times — unpruned, pruned by the coarse
   region analysis (Static.Prune.make ~refine:false, the PR 2 baseline),
   and pruned with the affine index refinement (the default) — and
   reports the times, the statements each pre-pass keeps monitored, and
   the accesses actually skipped at run time.  The race sets of all
   three runs are asserted identical (the soundness contract of
   lib/static/prune.mli), and the refined kept set is asserted a subset
   of the coarse one (refinement is strictly one-sided): a violation
   aborts the sweep rather than print a corrupt table.

   The finish-stripped programs are the detector's worst case — with the
   joins gone, most writes genuinely race with the final result reads,
   so there is little left for index reasoning to discharge.  The sweep
   therefore also analyzes each benchmark's finish-intact (expert)
   program, where the refinement's static effect shows directly: the
   `intact conflicts` column reports coarse -> refined unproven-pair
   counts (series drops to 0 — statically verified race-free).

   Knobs (Harness): TDR_PRUNE_MIN_DISCHARGE (minimum additional
   statements the refinement must discharge across the suite, stripped
   and intact programs combined; default 1), TDR_BENCH_OUT.  The quick
   variant (`bench prune-quick`, @ci) keeps every assertion and the
   discharge floor. *)

let hr () = Fmt.pr "%s@." (String.make 112 '-')

(* Race records in report order differ between runs that skip accesses;
   the multiset must not. *)
let sigs det =
  List.sort compare (Espbags.Race.exact_sigs (Espbags.Detector.races det))

type row = {
  name : string;
  full_ms : float;
  coarse_ms : float;  (** detection under the coarse keep predicate *)
  refined_ms : float;  (** detection under the refined keep predicate *)
  analysis_ms : float;  (** refined [Static.Prune.make], paid once *)
  races : int;
  coarse_kept : int;
  refined_kept : int;
  stmts_total : int;
  skipped : int;  (** accesses skipped under the refined predicate *)
  accesses : int;
  (* finish-intact (expert) program: the refinement's static effect *)
  intact_stmts : int;
  intact_coarse_kept : int;
  intact_refined_kept : int;
  intact_coarse_conflicts : int;
  intact_refined_conflicts : int;
}

let sweep_row (b : Benchsuite.Bench.t) : row =
  let prog = Benchsuite.Bench.stripped_program b in
  let (full, _), full_s =
    Obs.Clock.time (fun () -> Espbags.Detector.detect Espbags.Detector.Mrw prog)
  in
  let coarse_pr = Static.Prune.make ~refine:false prog in
  let pr, analysis_s = Obs.Clock.time (fun () -> Static.Prune.make prog) in
  let (coarse_pruned, _), coarse_s =
    Obs.Clock.time (fun () ->
        Espbags.Detector.detect
          ~keep:(Static.Prune.keep_fn coarse_pr)
          Espbags.Detector.Mrw prog)
  in
  let (pruned, _), refined_s =
    Obs.Clock.time (fun () ->
        Espbags.Detector.detect
          ~keep:(Static.Prune.keep_fn pr)
          Espbags.Detector.Mrw prog)
  in
  let identical = Harness.identical ~sweep:"prune" b.name in
  identical "MRW vs coarse-pruned MRW" (sigs full) (sigs coarse_pruned);
  identical "MRW vs refined-pruned MRW" (sigs full) (sigs pruned);
  if Static.Prune.n_kept pr > Static.Prune.n_kept coarse_pr then
    Fmt.failwith
      "%s: refinement kept %d statement(s), coarse only %d — refinement \
       must be one-sided"
      b.name (Static.Prune.n_kept pr)
      (Static.Prune.n_kept coarse_pr);
  let iprog = Benchsuite.Bench.repair_program b in
  let icoarse = Static.Prune.make ~refine:false iprog in
  let irefined = Static.Prune.make iprog in
  if Static.Prune.n_kept irefined > Static.Prune.n_kept icoarse then
    Fmt.failwith "%s (intact): refinement must be one-sided" b.name;
  {
    name = b.name;
    full_ms = full_s *. 1000.0;
    coarse_ms = coarse_s *. 1000.0;
    refined_ms = refined_s *. 1000.0;
    analysis_ms = analysis_s *. 1000.0;
    races = Espbags.Detector.race_count full;
    coarse_kept = Static.Prune.n_kept coarse_pr;
    refined_kept = Static.Prune.n_kept pr;
    stmts_total = Static.Prune.n_stmts pr;
    skipped = pruned.Espbags.Detector.n_skipped;
    accesses = full.Espbags.Detector.n_accesses;
    intact_stmts = Static.Prune.n_stmts irefined;
    intact_coarse_kept = Static.Prune.n_kept icoarse;
    intact_refined_kept = Static.Prune.n_kept irefined;
    intact_coarse_conflicts = Static.Prune.n_conflicts icoarse;
    intact_refined_conflicts = Static.Prune.n_conflicts irefined;
  }

let report rows =
  let module J = Obs.Json in
  let row_json r =
    J.Obj
      [
        ("name", J.Str r.name);
        ("full_ms", J.Float r.full_ms);
        ("coarse_pruned_ms", J.Float r.coarse_ms);
        ("refined_pruned_ms", J.Float r.refined_ms);
        ("analysis_ms", J.Float r.analysis_ms);
        ("races", J.Int r.races);
        ("stmts_total", J.Int r.stmts_total);
        ("coarse_kept", J.Int r.coarse_kept);
        ("refined_kept", J.Int r.refined_kept);
        ("accesses", J.Int r.accesses);
        ("skipped_accesses", J.Int r.skipped);
        ("intact_stmts", J.Int r.intact_stmts);
        ("intact_coarse_kept", J.Int r.intact_coarse_kept);
        ("intact_refined_kept", J.Int r.intact_refined_kept);
        ("intact_coarse_conflicts", J.Int r.intact_coarse_conflicts);
        ("intact_refined_conflicts", J.Int r.intact_refined_conflicts);
      ]
  in
  let total f = J.Int (List.fold_left (fun acc r -> acc + f r) 0 rows) in
  J.Obj
    [
      ("stmts_total", total (fun r -> r.stmts_total));
      ("coarse_kept", total (fun r -> r.coarse_kept));
      ("refined_kept", total (fun r -> r.refined_kept));
      ("intact_coarse_kept", total (fun r -> r.intact_coarse_kept));
      ("intact_refined_kept", total (fun r -> r.intact_refined_kept));
      ("intact_coarse_conflicts", total (fun r -> r.intact_coarse_conflicts));
      ("intact_refined_conflicts", total (fun r -> r.intact_refined_conflicts));
      ( "refinement_extra_discharged",
        total (fun r ->
            r.coarse_kept - r.refined_kept
            + (r.intact_coarse_kept - r.intact_refined_kept)) );
      ("rows", J.List (List.map row_json rows));
    ]

let sweep ~quick () =
  Fmt.pr
    "@.Static-prune ablation: MRW detection unpruned / coarse regions / \
     affine-refined@.";
  hr ();
  Fmt.pr "%-14s %9s %9s %9s %9s %6s %13s %13s %10s %17s@." "Benchmark"
    "full ms" "coarse ms" "refined" "static" "races" "kept c/r" "accesses"
    "skipped" "intact conflicts";
  hr ();
  let rows = List.map sweep_row Benchsuite.Suite.all in
  List.iter
    (fun r ->
      Fmt.pr "%-14s %9.1f %9.1f %9.1f %9.1f %6d %5d/%-3d of %-3d %13d %10d \
              %8d -> %-4d@."
        r.name r.full_ms r.coarse_ms r.refined_ms r.analysis_ms r.races
        r.coarse_kept r.refined_kept r.stmts_total r.accesses r.skipped
        r.intact_coarse_conflicts r.intact_refined_conflicts)
    rows;
  hr ();
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let coarse_kept = total (fun r -> r.coarse_kept)
  and refined_kept = total (fun r -> r.refined_kept)
  and stmts = total (fun r -> r.stmts_total)
  and skipped = total (fun r -> r.skipped)
  and accesses = total (fun r -> r.accesses)
  and icoarse_kept = total (fun r -> r.intact_coarse_kept)
  and irefined_kept = total (fun r -> r.intact_refined_kept)
  and icoarse_cs = total (fun r -> r.intact_coarse_conflicts)
  and irefined_cs = total (fun r -> r.intact_refined_conflicts) in
  Fmt.pr
    "overall (stripped): %d of %d statement(s) discharged coarsely, %d \
     refined (+%d); %d of %d access(es) skipped (%.0f%%); race sets \
     identical on every benchmark@."
    (stmts - coarse_kept) stmts (stmts - refined_kept)
    (coarse_kept - refined_kept) skipped accesses
    (100.0 *. float_of_int skipped /. float_of_int (max 1 accesses));
  Fmt.pr
    "overall (finish-intact): kept statements %d -> %d, unproven conflicts \
     %d -> %d under the affine refinement@."
    icoarse_kept irefined_kept icoarse_cs irefined_cs;
  let extra =
    coarse_kept - refined_kept + (icoarse_kept - irefined_kept)
  in
  let floor = Harness.env_int "TDR_PRUNE_MIN_DISCHARGE" 1 in
  if extra < floor then
    failwith
      (Fmt.str
         "prune bench: the affine refinement discharged only %d additional \
          statement(s), below the %d floor (TDR_PRUNE_MIN_DISCHARGE) — \
          refinement regression?"
         extra floor);
  Harness.write ~quick "prune" (report rows)

let run () = sweep ~quick:false ()

let run_quick () = sweep ~quick:true ()
