(* Benchmark harness entry point.

   With no argument, regenerates every table and figure of the paper's
   evaluation section and then runs the Bechamel micro-benchmarks.  A
   single argument selects one piece:

     dune exec bench/main.exe -- [table1|table2|table3|table4|fig3|fig16|
                                  students|ablation|prune|prune-quick|
                                  detector|detector-quick|scale|scale-quick|
                                  strategies|strategies-quick|speedup|micro|all]

   (table3 and table4 are produced by the same SRW-vs-MRW sweep; the
   -quick pieces are the @ci variants of their sweeps.)

   The detector, scale, strategies, prune and speedup sweeps write
   BENCH_<name>.json through Harness, which also reads every knob:
   TDR_BENCH_OUT (output directory; a full sweep writes into the
   current directory when unset, a quick one only when set, "-" never),
   TDR_BENCH_SUITE (row filter), TDR_BENCH_REPEAT, TDR_BENCH_DOMAINS and
   the gates TDR_BENCH_MIN_SPEEDUP, TDR_PRUNE_MIN_DISCHARGE,
   TDR_BENCH_MIN_ACCESSES_PER_S, TDR_BENCH_MAX_RSS_MB,
   TDR_BENCH_MIN_RETAINED and TDR_BENCH_MIN_NONFINISH (README, "Bench
   knobs"). *)

let usage () =
  Fmt.epr
    "usage: main.exe \
     [table1|table2|table3|table4|fig3|fig16|students|ablation|prune|prune-quick|detector|detector-quick|scale|scale-quick|strategies|strategies-quick|speedup|micro|all]@.";
  exit 1

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Obs.Clock.now_ns () in
  (match which with
  | "table1" -> Tables.table1 ()
  | "table2" -> Tables.table2 ()
  | "table3" | "table4" -> Tables.table3_4 ()
  | "fig3" -> Tables.fig3 ()
  | "fig16" -> Tables.fig16 ()
  | "students" -> Tables.students ()
  | "ablation" -> Tables.ablation ()
  | "prune" -> Prune.run ()
  | "prune-quick" -> Prune.run_quick ()
  | "detector" -> Detector.run ()
  | "detector-quick" -> Detector.run_quick ()
  | "scale" -> Scale.run ()
  | "scale-quick" -> Scale.run_quick ()
  | "strategies" -> Strategies.run ()
  | "strategies-quick" -> Strategies.run_quick ()
  | "speedup" -> Speedup.run ()
  | "micro" -> Micro.run_and_print ()
  | "all" ->
      Tables.table1 ();
      Tables.fig3 ();
      Tables.table2 ();
      Tables.table3_4 ();
      Tables.fig16 ();
      Tables.students ();
      Tables.ablation ();
      Prune.run ();
      Detector.run ();
      Scale.run ();
      Strategies.run ();
      Speedup.run ();
      Micro.run_and_print ()
  | _ -> usage ());
  Fmt.pr "@.[bench completed in %.1fs]@." (Obs.Clock.elapsed_s t0)
