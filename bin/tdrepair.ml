(** tdrepair — test-driven repair of data races in Mini-HJ programs.

    Command-line layout mirrors the paper's artifact (Appendix A):
    [detect] instruments and executes a program, writing a race trace;
    [repair] computes and applies finish placements; the remaining
    commands expose the surrounding tooling (run, strip, elide, coverage,
    grading). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* -o's file, or stdout *)
let write_or_print output src =
  match output with Some path -> write_file path src | None -> print_string src

module Ec = Repair.Exit_code

(* Every failure exits through the Exit_code contract with a Diag
   printed on stderr (exit_code.mli documents the codes).  A file the
   command line names that cannot be read or written is an input error
   (exit 3); a failure no stage classifies is an internal error (exit 1)
   labelled with [cmd], the command that failed, and naming the failed
   call. *)
let or_die cmd f =
  try f () with
  | Sys_error m -> Options_cli.input_error "%s" m
  | e ->
      let d =
        match e with
        | Repair.Driver.Unrepairable m ->
            Some (Repair.Diag.make ~stage:Repair.Diag.Place m)
        | Repair.Faultinject.Injected (fault, msg) ->
            Some
              (Repair.Diag.make ~stage:(Repair.Faultinject.stage_of fault) msg)
        | e -> Repair.Diag.of_exn e
      in
      (match d with
      | Some d -> Fmt.epr "%a@." Repair.Diag.pp d
      | None ->
          Fmt.epr "error[%s]: internal error (please report): %s@." cmd
            (match e with
            | Unix.Unix_error (err, call, arg) ->
                Fmt.str "%s(%s): %s" call arg (Unix.error_message err)
            | e -> Printexc.to_string e));
      exit (Option.fold ~none:Ec.internal_error ~some:Ec.of_diag d)

let compile path = Mhj.Front.compile (read_file path)

module O = Repair.Options

(* Load a program with its --set overrides applied. *)
let load file (o : O.t) = O.apply_sets o.sets (compile file)

(* ---------------------------- arguments ---------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Mini-HJ source file.")

(* For [`Auto], the pick and its reason are printed on stdout; the
   driver resolves identically (same Vclock.Select.resolve) for the
   metrics. *)
let print_auto_backend prog (backend : O.backend) =
  if backend = `Auto then
    let pick, reason = Vclock.Select.resolve backend prog in
    Fmt.pr "auto backend: %a (%s)@." Vclock.Select.pp_choice pick reason

(* Per-candidate tournament summary shared by detect (preview) and
   repair. *)
let pp_candidates ppf (outcome : Repair.Strategy.outcome) =
  List.iter
    (fun (c : Repair.Strategy.candidate) ->
      match c.Repair.Strategy.score with
      | Some s when c.verified ->
          Fmt.pf ppf "  %-9s race-free in %d round(s): %a@."
            (Repair.Strategy.kind_name c.kind)
            c.rounds Compgraph.Score.pp s
      | _ ->
          Fmt.pf ppf "  %-9s not applicable: %s@."
            (Repair.Strategy.kind_name c.kind)
            (if c.note = "" then "no race-free candidate" else c.note))
    outcome.Repair.Strategy.candidates

(* Every named flag is a row of the Options_cli table. *)
let arg = Options_cli.arg

module R = Options_cli.Row

(* ---------------------------- commands ----------------------------- *)

let parse_cmd =
  let run file =
    or_die "parse" (fun () ->
        let prog = compile file in
        Fmt.pr "%s" (Mhj.Pretty.program_to_string prog))
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse, type-check and re-print a program.")
    Term.(const run $ file_arg)

let run_cmd =
  let run file procs sets par seed pace_ns =
    or_die "run" (fun () ->
        let prog = O.apply_sets sets (compile file) in
        match par with
        | None ->
            let res = Rt.Interp.run prog in
            print_string res.output;
            let cpl = Sdpst.Analysis.critical_path_length res.tree in
            let g = Compgraph.Graph.of_sdpst res.tree in
            Fmt.pr
              "work (T1) = %d cost units@\n\
               critical path (Tinf) = %d@\n\
               parallelism = %.2f@\n\
               simulated T_%d = %d@\n\
               S-DPST nodes = %d@."
              res.work cpl
              (float_of_int res.work /. float_of_int (max 1 cpl))
              procs
              (Compgraph.Sched.makespan ~procs g)
              res.tree.Sdpst.Node.n_nodes
        | Some n ->
            let n = if n = 0 then Domain.recommended_domain_count () else n in
            let mode =
              if n = 1 then Par.Engine.Fuzz { seed }
              else Par.Engine.Domains { n; seed }
            in
            let res = Par.Engine.run ~pace_ns ~mode prog in
            print_string res.output;
            (* The scheduler line is mode-tagged: a Fuzz run has a single
               worker, so printing "steals = 0" would be misleading. *)
            let sched_line =
              match res.stats.Par.Engine.sched with
              | Par.Engine.Fuzz_stats { n_inlined; n_pooled; n_yields } ->
                  Fmt.str
                    "tasks spawned = %d (inlined %d, pooled %d, yields %d; \
                     single worker, no steals)"
                    res.stats.Par.Engine.n_tasks n_inlined n_pooled n_yields
              | Par.Engine.Domains_stats { n_steals; n_deque_grows } ->
                  Fmt.str "tasks spawned = %d, steals = %d, deque grows = %d"
                    res.stats.Par.Engine.n_tasks n_steals n_deque_grows
            in
            Fmt.pr
              "parallel run: %d domain(s)%s, seed %d@\n\
               work (T1) = %d cost units@\n\
               %s@\n\
               wall-clock = %.3f s@."
              res.n_domains
              (if n = 1 then " (deterministic fuzz schedule)" else "")
              seed res.work sched_line res.wall_s)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a program: depth-first with work/critical-path analysis \
          (default), or for real on the parallel backend ($(b,--par)).")
    Term.(
      const run $ file_arg $ arg R.procs $ arg R.sets $ arg R.par $ arg R.seed
      $ arg R.pace)

(* Print the repaired program, or write it to -o's file. *)
let emit_repaired ~output ~quiet prog =
  let src = Mhj.Pretty.program_to_string prog in
  match output with
  | Some path ->
      write_file path src;
      Fmt.pr "repaired program written to %s@." path
  | None -> if not quiet then print_string src

(* The --trace timeline and the --metrics counters of a repair. *)
let save_telemetry ~trace_file ~metrics_file metrics =
  Option.iter (fun path -> Obs.Trace.save path) trace_file;
  Option.iter
    (fun path ->
      Obs.Json.save path
        (Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) metrics)))
    metrics_file

(* Fail fast on an unwritable spill path (the detector only opens it on
   first overflow, which could be minutes into a run). *)
let check_spill_writable spill =
  Option.iter
    (fun path ->
      try
        let oc = open_out_gen [ Open_wronly; Open_creat ] 0o644 path in
        close_out oc
      with Sys_error m -> Options_cli.input_error "--spill %s: %s" path m)
    spill

(* A spill file that never received records is an empty stub, not a
   loadable trace; drop it. *)
let cleanup_spill spill ~n_spilled =
  match spill with
  | Some path when n_spilled = 0 -> ( try Sys.remove path with Sys_error _ -> ())
  | _ -> ()

let pp_discharged (d : Repair.Driver.detection) =
  let n = Espbags.Race.Pairs.n_races (Lazy.force d.discharged) in
  if n > 0 then
    Fmt.pr "discharged %d race report(s) serialized by isolated section(s)@." n

let detect_cmd =
  let run file (o : O.t) trace dump_tree dump_sdpst timeout_ms =
    or_die "detect" (fun () ->
      Rt.Watchdog.with_timeout ~ms:timeout_ms @@ fun () ->
        let prog = load file o in
        print_auto_backend prog o.backend;
        check_spill_writable o.spill;
        let d = Repair.Driver.detect o prog in
        Option.iter
          (fun pr ->
            Fmt.pr
              "static prune: %d of %d statement(s) stay monitored (%d \
               unproven MHP conflict(s))@."
              (Static.Prune.n_kept pr) (Static.Prune.n_stmts pr)
              (Static.Prune.n_conflicts pr))
          d.prune;
        let res = d.run.result and n_spilled = d.run.n_spilled in
        cleanup_spill o.spill ~n_spilled;
        let pairs = Lazy.force d.pairs in
        let races = Repair.Isolate.suppress prog (Lazy.force d.run.races) in
        if dump_sdpst then Fmt.pr "%s@." (Sdpst.Serial.to_string res.tree);
        (match dump_tree with
        | Some path ->
            write_file path (Sdpst.Serial.tree_to_string res.tree);
            Fmt.pr "S-DPST written to %s@." path
        | None -> ());
        Fmt.pr "%a %s: %d race report(s), %d distinct step pair(s)@."
          Espbags.Detector.pp_mode o.mode
          (match d.backend with
          | `Espbags -> "ESP-bags"
          | `Vclock -> "vector-clock")
          (Espbags.Race.Pairs.n_races pairs)
          (Espbags.Race.Pairs.length pairs);
        Fmt.pr
          "checked %d access(es) over %d location(s); S-DPST has %d node(s)@."
          d.run.n_accesses d.run.n_locations
          res.Rt.Interp.tree.Sdpst.Node.n_nodes;
        if d.run.n_skipped > 0 then
          Fmt.pr "skipped %d access(es) proven sequential@." d.run.n_skipped;
        pp_discharged d;
        (match o.spill with
        | Some path when n_spilled > 0 ->
            Fmt.pr "spilled %d race record(s) to %s@." n_spilled path
        | _ -> ());
        List.iteri
          (fun i r ->
            if i < 20 then Fmt.pr "  %a@." Espbags.Race.pp r
            else if i = 20 then Fmt.pr "  ... (%d more)@." (List.length races - 20))
          races;
        (* --strategy=S previews how each repair strategy would fare on
           the detected races, without rewriting anything. *)
        (match o.strategy with
        | `Finish -> ()
        | choice when Espbags.Race.Pairs.length pairs = 0 ->
            Fmt.pr "strategy %a: program already race-free@."
              Repair.Strategy.pp_choice choice
        | choice -> (
            (* no strategy run spills, so the preview leaves the spill
               file of the detection above alone *)
            match Repair.Strategy.run ~options:o choice prog with
            | outcome ->
                Fmt.pr "strategy %a: %a would win@." Repair.Strategy.pp_choice
                  choice Repair.Strategy.pp_kind
                  outcome.Repair.Strategy.winner.kind;
                Fmt.pr "%a" pp_candidates outcome
            | exception Repair.Driver.Unrepairable m ->
                Fmt.pr "strategy %a: %s@." Repair.Strategy.pp_choice choice m));
        match trace with
        | Some path ->
            Espbags.Trace.save path ~mode:o.mode races;
            Fmt.pr "trace written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "Execute a program under a race detector (ESP-bags or vector \
          clocks, see $(b,--backend)) and report its data races.")
    Term.(
      const run $ file_arg $ Options_cli.term O.Detect $ arg R.race_trace
      $ arg R.dump_tree $ arg R.dump_sdpst $ arg R.timeout_ms)

let analyze_cmd =
  let run file tree_path trace_path output quiet =
    or_die "analyze" (fun () ->
        let prog = compile file in
        let malformed path (m, line) =
          Options_cli.input_error "%s:%d: %s" path line m
        in
        let tree =
          try Sdpst.Serial.tree_of_string (read_file tree_path)
          with Sdpst.Serial.Parse_error (m, l) -> malformed tree_path (m, l)
        in
        let _mode, races =
          try Espbags.Trace.of_string tree (read_file trace_path)
          with Espbags.Trace.Parse_error (m, l) -> malformed trace_path (m, l)
        in
        let groups, merged = Repair.Driver.place_for_tree ~program:prog races in
        Fmt.pr
          "%d race(s) in %d NS-LCA group(s) -> %d finish statement(s):@."
          (List.length races) (List.length groups)
          (List.length merged.Repair.Static_place.placements);
        let scopes = Mhj.Scopecheck.build prog in
        List.iter
          (fun p ->
            Fmt.pr "  insert finish around %a@."
              (Repair.Report.pp_placement_loc scopes)
              p)
          merged.Repair.Static_place.placements;
        emit_repaired ~output ~quiet (Repair.Static_place.apply prog merged))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Compute finish placements offline from a recorded S-DPST and race \
          trace (the paper's Appendix A analyzer; no re-execution).")
    Term.(
      const run $ file_arg $ arg R.tree $ arg R.race_trace_in $ arg R.output
      $ arg R.quiet)

let repair_cmd =
  let run file (o : O.t) output report_flag quiet validate_par validate_seed
      budget_validate trace_file metrics_file timeout_ms =
    (* Enable tracing before the compile so the parse/typecheck/normalize
       spans land in the file too. *)
    if trace_file <> None then Obs.Trace.enable ();
    or_die "repair" (fun () ->
      Rt.Watchdog.with_timeout ~ms:timeout_ms @@ fun () ->
        check_spill_writable o.spill;
        let prog = load file o in
        print_auto_backend prog o.backend;
        match o.strategy with
        | (`Isolated | `Elide | `Chunk | `Tournament) as choice ->
            (* Alternative repair strategies go through the tournament
               layer; the winner is verified race-free by a fresh
               detection run before it is printed. *)
            let outcome = Repair.Strategy.run ~options:o choice prog in
            Fmt.pr "strategy %a: %a wins@." Repair.Strategy.pp_choice choice
              Repair.Strategy.pp_kind outcome.Repair.Strategy.winner.kind;
            Fmt.pr "%a" pp_candidates outcome;
            save_telemetry ~trace_file ~metrics_file outcome.metrics;
            emit_repaired ~output ~quiet outcome.program
        | `Finish ->
        let validate_par =
          Option.map
            (fun schedules ->
              {
                Par.Validate.schedules;
                seed = validate_seed;
                budget_ms = budget_validate;
              })
            validate_par
        in
        let report = Repair.Driver.repair ~options:o ?validate_par prog in
        let n_spilled =
          Option.value ~default:0
            (List.assoc_opt "detector.spilled_races"
               report.Repair.Driver.metrics)
        in
        cleanup_spill o.spill ~n_spilled;
        (* Write telemetry before anything below can [exit]. *)
        save_telemetry ~trace_file ~metrics_file report.metrics;
        if report_flag then Fmt.pr "%a" Repair.Report.pp (prog, report)
        else begin
          Fmt.pr "%s after %d iteration(s); %d finish statement(s) inserted@."
            (if report.converged then "race-free" else "NOT converged")
            (List.length report.iterations)
            (List.length (Repair.Driver.total_placements report));
          List.iter
            (fun d -> Fmt.pr "degraded: %a@." Repair.Guard.pp_degradation d)
            report.degradations
        end;
        (match report.verified_static with
        | Some true ->
            Fmt.pr
              "statically verified: race-free for all inputs (no unproven \
               MHP pair)@."
        | Some false ->
            Fmt.pr
              "static verification incomplete: %d unproven pair(s) remain \
               — race-free for this input only@."
              (List.length report.static_residual);
            List.iter
              (fun f -> Fmt.pr "  %a@." Static.Finding.pp f)
              report.static_residual
        | None -> ());
        (match report.validated_par with
        | Some v when not report_flag ->
            (* the --report path prints this via Report.pp *)
            Fmt.pr "parallel validation: %a@." Par.Validate.pp v
        | _ -> ());
        emit_repaired ~output ~quiet report.program;
        if not report.converged then exit Ec.not_converged;
        (* a schedule divergence means the "repaired" program still behaves
           nondeterministically: the repair did not actually converge *)
        (match report.validated_par with
        | Some v when v.Par.Validate.divergences <> [] ->
            exit Ec.not_converged
        | _ -> ());
        (* an unverified repair is a degraded result: correct for the test
           input, not proven for all inputs *)
        if report.degradations <> [] || report.verified_static = Some false
        then exit Ec.degraded)
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Iteratively insert finish statements until the program is \
          race-free for its input (the paper's core tool).  Exit codes: 0 \
          repaired at full fidelity, 2 not converged (or \
          $(b,--validate-par) found a schedule divergence), 3 invalid \
          input, 4 repaired but degraded by a $(b,--budget-*) limit or \
          left unproven by $(b,--static-verify), 5 unrepairable.")
    Term.(
      const run $ file_arg $ Options_cli.term O.Repair $ arg R.output
      $ arg R.report $ arg R.quiet $ arg R.validate_par $ arg R.validate_seed
      $ arg R.budget_validate $ arg R.chrome_trace $ arg R.metrics
      $ arg R.timeout_ms)

let strip_cmd =
  let run file output =
    or_die "strip" (fun () ->
        write_or_print output
          (Mhj.Pretty.program_to_string
             (Mhj.Transform.strip_finishes (compile file))))
  in
  Cmd.v
    (Cmd.info "strip"
       ~doc:
         "Remove every finish statement (the paper's §7.1 buggy-program \
          construction).")
    Term.(const run $ file_arg $ arg R.output)

let elide_cmd =
  let run file output =
    or_die "elide" (fun () ->
        write_or_print output
          (Mhj.Pretty.program_to_string (Mhj.Elision.elide (compile file))))
  in
  Cmd.v
    (Cmd.info "elide"
       ~doc:"Print the serial elision (all parallel constructs erased).")
    Term.(const run $ file_arg $ arg R.output)

let coverage_cmd =
  let run file sets =
    or_die "coverage" (fun () ->
        let prog = O.apply_sets sets (compile file) in
        let res = Rt.Interp.run prog in
        let cov = Repair.Coverage.of_runs prog [ res.tree ] in
        Fmt.pr "%a@." Repair.Coverage.pp cov)
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Report which statements and async sites the test input exercises \
          (paper §9 extension).")
    Term.(const run $ file_arg $ arg R.sets)

let grade_cmd =
  let run verbose =
    or_die "grade" (fun () ->
        let summary, verdicts = Benchsuite.Students.grade_all () in
        if verbose then
          List.iter
            (fun ({ submission; marks = m } : Benchsuite.Students.verdict) ->
              Fmt.pr "submission %02d: %a (expected %a), races=%d, cpl=%d, \
                      tool cpl=%d@."
                submission.id Benchsuite.Students.pp_expected m.graded
                Benchsuite.Students.pp_expected submission.expected m.races
                m.cpl m.tool_cpl)
            verdicts;
        Fmt.pr
          "59 submissions: %d racy, %d over-synchronized, %d matched the \
           tool (paper: 5 / 29 / 25); generator/grader mismatches: %d@."
          summary.racy summary.oversync summary.optimal summary.mismatches)
  in
  Cmd.v
    (Cmd.info "grade"
       ~doc:
         "Grade the synthetic student quicksort submissions (paper §7.4).")
    Term.(const run $ arg R.verbose)

let grade_file_cmd =
  let run file =
    or_die "grade-file" (fun () ->
        let prog = compile file in
        let d, m = Benchsuite.Students.mark prog in
        match m.graded with
        | Racy ->
            Fmt.pr
              "verdict: RACY — %d race(s) remain; e.g. %a@."
              m.races
              (Fmt.option Espbags.Race.pp)
              (List.nth_opt
                 (Repair.Isolate.suppress prog (Lazy.force d.run.races))
                 0);
            exit Ec.grade_racy
        | Oversync ->
            Fmt.pr
              "verdict: OVER-SYNCHRONIZED — race-free, but critical path %d \
               vs the tool's %d (%.2fx less parallelism)@."
              m.cpl m.tool_cpl
              (float_of_int m.cpl /. float_of_int m.tool_cpl);
            exit Ec.grade_oversync
        | Optimal ->
            Fmt.pr
              "verdict: OPTIMAL — race-free with the tool's parallelism \
               (critical path %d)@."
              m.cpl)
  in
  Cmd.v
    (Cmd.info "grade-file"
       ~doc:
         "Grade a finish-insertion exercise submission the way §7.4 grades           the course homework: racy / over-synchronized / matches the           tool's parallelism.  Exit code 0 = optimal, 3 = racy, 4 =           over-synchronized.")
    Term.(const run $ file_arg)

let explain_cmd =
  let run file (o : O.t) =
    or_die "explain" (fun () ->
        let prog = load file o in
        check_spill_writable o.spill;
        let d = Repair.Driver.detect o prog in
        let res = d.run.result in
        cleanup_spill o.spill ~n_spilled:d.run.n_spilled;
        let pairs = Lazy.force d.pairs in
        let a, f, s, st = Sdpst.Node.count_by_kind res.tree in
        Fmt.pr
          "S-DPST: %d nodes (%d asyncs, %d finishes, %d scopes, %d steps), \
           depth-first skeleton:@."
          res.tree.Sdpst.Node.n_nodes a f s st;
        let skel = Sdpst.Serial.skeleton res.tree in
        Fmt.pr "  %s@."
          (if String.length skel > 400 then String.sub skel 0 400 ^ "..."
           else skel);
        Fmt.pr "work = %d, critical path = %d, parallelism = %.2f@." res.work
          (Sdpst.Analysis.critical_path_length res.tree)
          (float_of_int res.work
          /. float_of_int
               (max 1 (Sdpst.Analysis.critical_path_length res.tree)));
        pp_discharged d;
        if Espbags.Race.Pairs.length pairs = 0 then
          Fmt.pr "no data races for this input@."
        else begin
          (* group by contended variable *)
          let by_var = Hashtbl.create 16 in
          List.iter
            (fun (r : Espbags.Race.t) ->
              let v = Fmt.str "%a" Rt.Addr.pp r.addr in
              Hashtbl.replace by_var v
                (1 + Option.value ~default:0 (Hashtbl.find_opt by_var v)))
            (Repair.Isolate.suppress prog (Lazy.force d.run.races));
          Fmt.pr "%d race report(s) on %d location(s); most contended:@."
            (Espbags.Race.Pairs.n_races pairs) (Hashtbl.length by_var);
          let sorted =
            Hashtbl.fold (fun v n acc -> (n, v) :: acc) by_var []
            |> List.sort (fun a b -> compare b a)
          in
          List.iteri
            (fun i (n, v) -> if i < 10 then Fmt.pr "  %6d  %s@." n v)
            sorted;
          (* per NS-LCA dependence graphs *)
          let groups, merged = Repair.Driver.place_pairs ~program:prog pairs in
          Fmt.pr "NS-LCA groups: %d@." (List.length groups);
          List.iteri
            (fun i (g : Repair.Driver.group_result) ->
              if i < 10 then
                Fmt.pr "  group at node %d: %d vertices, %d edges, DP cost %d@."
                  g.lca_id g.n_vertices g.n_edges g.dp_cost)
            groups;
          let scopes = Mhj.Scopecheck.build prog in
          Fmt.pr "suggested repair:@.";
          List.iter
            (fun p ->
              Fmt.pr "  insert finish around %a@."
                (Repair.Report.pp_placement_loc scopes)
                p)
            merged.Repair.Static_place.placements
        end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a program's parallel structure: S-DPST shape, work and \
          critical path, contended locations, per-NS-LCA dependence graphs \
          and the suggested repair — the teaching view behind the paper's \
          course use-case.  It detects as $(b,detect) does, under the same \
          options.")
    Term.(const run $ file_arg $ Options_cli.term O.Detect)

let bench_list_cmd =
  let run () =
    List.iter
      (fun (b : Benchsuite.Bench.t) ->
        Fmt.pr "%-14s %-9s %s@." b.name b.suite b.descr)
      Benchsuite.Suite.all
  in
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the Table 1 benchmark suite.")
    Term.(const run $ const ())

let emit_cmd =
  let run name which output =
    or_die "emit" (fun () ->
        match Benchsuite.Suite.find name with
        | None ->
            Fmt.epr "unknown benchmark %S; try 'tdrepair benchmarks'@." name;
            exit Ec.input_error
        | Some b ->
            write_or_print output
              (match which with
              | `Repair -> b.repair_src
              | `Perf -> b.perf_src
              | `Stripped ->
                  Mhj.Pretty.program_to_string
                    (Benchsuite.Bench.stripped_program b)))
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark name (see $(b,benchmarks)).")
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:"Print a benchmark's Mini-HJ source (for use with the other \
             commands).")
    Term.(const run $ name_arg $ arg R.size $ arg R.output)

let lint_cmd =
  let run files exit_zero suite explain =
    or_die "lint" (fun () ->
        let total = ref 0 in
        let lint_one label prog =
          let findings = Static.Lint.run ~explain prog in
          List.iter
            (fun f -> Fmt.pr "%s: %a@." label Static.Finding.pp f)
            findings;
          total := !total + List.length findings
        in
        List.iter (fun path -> lint_one path (compile path)) files;
        if suite then
          List.iter
            (fun (b : Benchsuite.Bench.t) ->
              lint_one ("bench:" ^ b.name)
                (Mhj.Front.compile b.repair_src))
            Benchsuite.Suite.all;
        if files = [] && not suite then
          Options_cli.input_error "no input files (pass FILE... or --suite)";
        if !total = 0 then Fmt.pr "no findings@."
        else begin
          Fmt.pr "%d finding(s)@." !total;
          if not exit_zero then exit Ec.lint_findings
        end)
  in
  let files =
    Arg.(
      value & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:"Mini-HJ source files to lint.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static MHP race checker and lint rules (static-race, \
          provably-disjoint, redundant-finish, dead-async, \
          finish-coarsen) without executing the program.  Array conflicts \
          are refined by an affine subscript analysis; see \
          $(b,--explain).  Exit codes: 0 no findings, 3 invalid input, 6 \
          findings reported (0 with $(b,--exit-zero)).")
    Term.(
      const run $ files $ arg R.exit_zero $ arg R.suite $ arg R.explain)

let serve_cmd =
  let run socket workers queue max_frame cache retries backoff_ms timeout_ms
      hard_ms verbose =
    or_die "serve" (fun () ->
        Serve.Daemon.run
          {
            Serve.Daemon.socket;
            workers;
            queue_capacity = queue;
            max_frame;
            cache_capacity = cache;
            retries;
            backoff_ms;
            default_timeout_ms = timeout_ms;
            hard_watchdog_ms = hard_ms;
            verbose;
          })
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-only repair daemon: newline-delimited JSON jobs \
          ($(b,detect)/$(b,repair)/$(b,lint)) over a Unix-domain socket, \
          executed on supervised worker domains with per-job watchdogs, \
          capped-backoff retries, bounded-queue load shedding and a \
          content-hash result cache.  SIGTERM drains in-flight jobs and \
          exits cleanly.  See DESIGN.md §12 for the protocol.")
    Term.(
      const run $ arg R.socket $ arg R.workers $ arg R.queue $ arg R.max_frame
      $ arg R.cache $ arg R.retries $ arg R.backoff_ms $ arg R.timeout_ms
      $ arg R.hard_watchdog_ms $ arg R.serve_verbose)

let call_cmd =
  let module J = Obs.Json in
  let run socket health shutdown op id file (o : O.t) timeout_ms trace =
    or_die "call" (fun () ->
        let req =
          if health then J.Obj [ ("op", J.Str "health") ]
          else if shutdown then J.Obj [ ("op", J.Str "shutdown") ]
          else begin
            let file =
              match file with
              | Some f -> f
              | None ->
                  Options_cli.input_error
                    "FILE is required unless --health or --shutdown is given"
            in
            let options =
              match O.to_json o with J.Obj kvs -> kvs | _ -> []
            in
            let flags =
              options
              @ (match timeout_ms with
                | Some t -> [ ("timeout_ms", J.Int t) ]
                | None -> [])
              @ if trace then [ ("trace", J.Bool true) ] else []
            in
            J.Obj
              [
                ("op", J.Str op);
                ("id", J.Str id);
                ("src", J.Str (read_file file));
                ("flags", J.Obj flags);
              ]
          end
        in
        let c =
          try Serve.Client.connect socket
          with Unix.Unix_error (e, _, _) ->
            Fmt.epr "error: cannot reach a daemon at %s: %s@." socket
              (Unix.error_message e);
            exit Ec.unavailable
        in
        Serve.Client.send_json c req;
        match Serve.Client.recv c with
        | None ->
            Fmt.epr "error: daemon closed the connection without replying@.";
            exit Ec.internal_error
        | Some reply ->
            print_endline reply;
            Serve.Client.close c;
            let status =
              Option.bind
                (try J.member "status" (J.of_string reply)
                 with J.Parse_error _ -> None)
                (function J.Str s -> Some s | _ -> None)
            in
            (* an error reply (bad request, oversized frame) carries no
               status, and is a failure like one that does not parse *)
            match status with
            | Some ("ok" | "draining") -> ()
            | Some "degraded" -> exit Ec.degraded
            | _ -> exit Ec.internal_error)
  in
  let file =
    Arg.(
      value
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"Mini-HJ source file to submit.")
  in
  (* call takes two of the job options; the daemon fills in the rest *)
  let options =
    Term.(
      const (fun strategy sets -> { O.default with strategy; sets })
      $ arg R.strategy $ arg R.sets)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Submit one job (or a health/shutdown request) to a running \
          $(b,tdrepair serve) daemon and print the raw JSON reply.  Exit \
          codes: 0 ok or draining, 4 degraded, 7 no daemon at the socket, \
          1 any other reply (failed, overloaded, cancelled, an error reply \
          or one that does not parse).")
    Term.(
      const run $ arg R.socket $ arg R.health $ arg R.shutdown $ arg R.op
      $ arg R.id $ file $ options $ arg R.timeout_ms $ arg R.span_names)

let main_cmd =
  let doc =
    "test-driven repair of data races in structured parallel programs \
     (PLDI 2014 reproduction)"
  in
  Cmd.group
    (Cmd.info "tdrepair" ~version:"1.0.0" ~doc)
    [
      parse_cmd; run_cmd; detect_cmd; analyze_cmd; repair_cmd; lint_cmd;
      strip_cmd; elide_cmd; coverage_cmd; grade_cmd; grade_file_cmd;
      explain_cmd; bench_list_cmd; emit_cmd; serve_cmd; call_cmd;
    ]

let () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  exit (Cmd.eval main_cmd)
