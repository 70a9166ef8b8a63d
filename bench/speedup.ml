(* `bench speedup`: sequential-vs-parallel wall clock per benchsuite
   program, on the real domains backend.

   Interpreting Mini-HJ is pure CPU work, so raw wall-clock speedup would
   only measure how many hardware cores this machine happens to have.
   Instead every execution is *paced* (Par.Engine's [pace_ns]): each cost
   unit also costs a fixed slice of sleep, sized so the sequential run
   takes [target_s].  Sleep overlaps across domains exactly like compute
   overlaps across cores, so the measured speedup reflects the schedule's
   available overlap — bounded by min(domains, work/CPL) — and is
   comparable across hosts, including single-core CI containers.

   That also makes the run a direct test of the critical-path model: the
   table reports predicted speedup work / max(CPL, work/domains) next to
   the measured one.  Each parallel run's output is checked against the
   sequential interpreter (multiset of lines + final-state digest): the
   expert-synchronized benchmark programs are race-free, so any mismatch
   is an engine bug and aborts the sweep.

   Knobs (Harness): TDR_BENCH_DOMAINS (default 4), TDR_BENCH_REPEAT
   (default 1), TDR_BENCH_OUT. *)

let target_s = 0.4

type row = {
  name : string;
  work : int;
  cpl : int;
  pace_ns : int;
  predicted : float;
  seq_s : float;
  par_s : float;
  speedup : float;
  n_tasks : int;
  n_steals : int;
}

let measure ~domains ~repeat (b : Benchsuite.Bench.t) : row =
  let prog = Benchsuite.Bench.repair_program b in
  let seq = Rt.Interp.run prog in
  let cpl = Sdpst.Analysis.critical_path_length seq.tree in
  let pace_ns =
    max 1 (int_of_float (target_s *. 1e9 /. float_of_int (max 1 seq.work)))
  in
  let ref_lines = Par.Validate.sorted_lines seq.output in
  let ref_digest = Rt.Value.digest_globals seq.globals in
  let run n =
    let r =
      Par.Engine.run ~pace_ns ~mode:(Par.Engine.Domains { n; seed = 0 }) prog
    in
    if Par.Validate.sorted_lines r.output <> ref_lines
       || r.digest <> ref_digest
    then
      failwith
        (Fmt.str "speedup: %s diverged from the sequential semantics at %d \
                  domain(s) — engine bug" b.name n);
    r
  in
  (* pacing makes runs self-similar, so no warmup; repeat>1 takes the
     fastest (least-preempted) run of each side *)
  let r1, seq_s = Obs.Clock.time_run ~warmup:0 ~repeat (fun () -> run 1) in
  ignore r1;
  let rp, par_s = Obs.Clock.time_run ~warmup:0 ~repeat (fun () -> run domains) in
  let predicted =
    let w = float_of_int seq.work and c = float_of_int (max 1 cpl) in
    w /. Float.max c (w /. float_of_int domains)
  in
  let n_steals =
    match rp.stats.Par.Engine.sched with
    | Par.Engine.Domains_stats { n_steals; _ } -> n_steals
    | Par.Engine.Fuzz_stats _ -> assert false (* run is Domains-mode only *)
  in
  {
    name = b.name;
    work = seq.work;
    cpl;
    pace_ns;
    predicted;
    seq_s;
    par_s;
    speedup = seq_s /. par_s;
    n_tasks = rp.stats.Par.Engine.n_tasks;
    n_steals;
  }

let report ~domains ~repeat rows =
  let module J = Obs.Json in
  let row_json (r : row) =
    J.Obj
      [
        ("name", J.Str r.name);
        ("work", J.Int r.work);
        ("cpl", J.Int r.cpl);
        ("pace_ns", J.Int r.pace_ns);
        ("predicted_speedup", Harness.ratio r.predicted);
        ("seq_s", J.Float r.seq_s);
        ("par_s", J.Float r.par_s);
        ("speedup", Harness.ratio r.speedup);
        ("n_tasks", J.Int r.n_tasks);
        ("n_steals", J.Int r.n_steals);
      ]
  in
  J.Obj
    [
      ("domains", J.Int domains);
      ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
      ("pace_target_s", J.Float target_s);
      ("repeat", J.Int repeat);
      ("rows", J.List (List.map row_json rows));
    ]

let run () =
  let domains = Harness.env_int "TDR_BENCH_DOMAINS" 4 in
  let repeat = Harness.env_int "TDR_BENCH_REPEAT" 1 in
  Fmt.pr
    "== parallel speedup: %d domain(s), paced to ~%.1fs sequential ==@."
    domains target_s;
  Fmt.pr "%-14s %10s %8s %10s %8s %8s %9s %10s@." "benchmark" "work" "CPL"
    "predicted" "seq(s)" "par(s)" "speedup" "steals";
  let rows =
    List.map
      (fun b ->
        let r = measure ~domains ~repeat b in
        Fmt.pr "%-14s %10d %8d %9.2fx %8.3f %8.3f %8.2fx %10d@." r.name
          r.work r.cpl r.predicted r.seq_s r.par_s r.speedup r.n_steals;
        r)
      Benchsuite.Suite.all
  in
  let above =
    List.length (List.filter (fun r -> r.speedup > 1.5) rows)
  in
  Fmt.pr "%d of %d benchmark(s) above 1.5x at %d domain(s)@." above
    (List.length rows) domains;
  Harness.write ~quick:false "speedup" (report ~domains ~repeat rows)
