(* `bench strategies`: repair-strategy tournament comparison — for each
   suite program, run every repair strategy (finish insertion, isolated
   sections, async elision, loop chunking) through
   Repair.Strategy.run `Tournament and compare the candidates on the
   critical-path simulator (Compgraph.Score).

   The suite is chosen so the strategies differentiate:

     - fib      — Figure 8 fib: a missing join.  Finish insertion
                  restores it and keeps the recursive parallelism; no
                  other strategy can beat it.
     - reduce   — sibling reduction into sum[0] after a heavy local
                  call.  Finish insertion can only serialize the loop;
                  wrapping the accumulation in [isolated] keeps the
                  heavy calls parallel and wins.
     - series   — checksum accumulation (same shape, wider loop,
                  different work profile); [isolated] wins again.
     - stencil  — stride-8 stencil where the racing statement contains
                  a user call, so [isolated] is inapplicable; an
                  8-iteration chunk boundary separates every
                  conflicting pair and [chunk] wins.

   Per row the table reports the original (racy) execution's
   parallelism, each strategy's CPL (or why it produced nothing), the
   tournament winner and the parallelism retained by the winning repair
   (winner parallelism / original parallelism).

   Assertions, aborting rather than printing a corrupt table:

     - every winner is verified race-free and its CPL is never worse
       than finish insertion's (the ISSUE acceptance invariant);
     - at least TDR_BENCH_MIN_NONFINISH rows (default 2) select a
       non-finish winner — the tournament must demonstrably beat the
       greedy baseline somewhere, not just tie it;
     - every winner retains at least TDR_BENCH_MIN_RETAINED (default
       0.15, 0 disables) of the original parallelism.

   Knobs (Harness): TDR_BENCH_SUITE (row names),
   TDR_BENCH_MIN_RETAINED, TDR_BENCH_MIN_NONFINISH, TDR_BENCH_OUT.  The
   quick variant (`bench strategies-quick`, @ci) shrinks the heavy inner
   loops ~4x; all assertions stay on. *)

module Strategy = Repair.Strategy
module Score = Compgraph.Score

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let fib_src =
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
  async fib(r, 0, 8);
  print(r[0]);
}
|}

let reduce_src ~reps =
  Fmt.str
    {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to %d) { acc = acc + n + j; }
  return acc;
}
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to 7) {
      async {
        val v: int = heavy(i);
        sum[0] = sum[0] + v;
      }
    }
  }
  print(sum[0]);
}
|}
    reps

let series_src ~reps =
  Fmt.str
    {|
def poly(n: int): int {
  var acc: int = 1;
  for (j = 0 to %d) { acc = acc + n + j; }
  return acc;
}
def main() {
  val check: int[] = new int[1];
  finish {
    for (i = 0 to 11) {
      async {
        val t: int = poly(i);
        check[0] = check[0] + t;
      }
    }
  }
  print(check[0]);
}
|}
    reps

let stencil_src ~reps =
  Fmt.str
    {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to %d) { acc = acc + n + j; }
  return acc;
}
def main() {
  val a: int[] = new int[16];
  finish {
    for (i = 0 to 15) {
      async {
        if (i < 8) { a[i] = heavy(a[i + 8]); }
        else { a[i] = heavy(i); }
      }
    }
  }
  var s: int = 0;
  for (k = 0 to 15) { s = s + a[k]; }
  print(s);
}
|}
    reps

let suite ~quick () =
  let r full = if quick then full / 4 else full in
  let all =
    [
      ("fib", fib_src);
      ("reduce", reduce_src ~reps:(r 255));
      ("series", series_src ~reps:(r 127));
      ("stencil", stencil_src ~reps:(r 127));
    ]
  in
  Harness.suite ~sweep:"strategies" fst all

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  original : Score.t;  (** score of the racy execution, before repair *)
  outcome : Strategy.outcome;
  retained : float;  (** winner parallelism / original parallelism *)
  tournament_s : float;
}

let measure (name, src) =
  let prog = Mhj.Front.compile src in
  let original = Score.of_tree (Rt.Interp.run prog).Rt.Interp.tree in
  let t0 = Obs.Clock.now_ns () in
  let outcome = Strategy.run `Tournament prog in
  let tournament_s = Obs.Clock.elapsed_s t0 in
  let winner_par =
    match outcome.Strategy.winner.score with
    | Some s -> s.Score.parallelism
    | None ->
        failwith
          (Fmt.str "strategies bench: %s: winner has no score" name)
  in
  let retained =
    if original.Score.parallelism > 0. then
      winner_par /. original.Score.parallelism
    else 1.
  in
  { name; original; outcome; retained; tournament_s }

let candidate r kind =
  List.find
    (fun (c : Strategy.candidate) -> c.kind = kind)
    r.outcome.Strategy.candidates

let cpl_cell (c : Strategy.candidate) =
  if c.verified then
    match c.score with
    | Some s -> Fmt.str "%d" s.Score.cpl
    | None -> "?"
  else "-"

(* ------------------------------------------------------------------ *)
(* Assertions                                                          *)
(* ------------------------------------------------------------------ *)

let min_retained () = Harness.env_float "TDR_BENCH_MIN_RETAINED" 0.15

let assert_rows rows =
  List.iter
    (fun r ->
      let w = r.outcome.Strategy.winner in
      if not w.Strategy.verified then
        failwith
          (Fmt.str "strategies bench: %s: winner %s is not verified" r.name
             (Strategy.kind_name w.Strategy.kind));
      let fin = candidate r Strategy.Finish in
      match (w.Strategy.score, fin.Strategy.score) with
      | Some ws, Some fs when fin.Strategy.verified ->
          if ws.Score.cpl > fs.Score.cpl then
            failwith
              (Fmt.str
                 "strategies bench: %s: winner %s cpl %d is worse than \
                  finish cpl %d"
                 r.name
                 (Strategy.kind_name w.Strategy.kind)
                 ws.Score.cpl fs.Score.cpl)
      | _ -> ())
    rows;
  let nonfinish =
    List.length
      (List.filter
         (fun r -> r.outcome.Strategy.winner.Strategy.kind <> Strategy.Finish)
         rows)
  in
  let min_nonfinish = Harness.env_int "TDR_BENCH_MIN_NONFINISH" 2 in
  if List.length rows >= 3 && nonfinish < min_nonfinish then
    failwith
      (Fmt.str
         "strategies bench: only %d rows select a non-finish winner (need \
          %d; TDR_BENCH_MIN_NONFINISH)"
         nonfinish min_nonfinish);
  let floor = min_retained () in
  List.iter
    (fun r ->
      if floor > 0. && r.retained < floor then
        failwith
          (Fmt.str
             "strategies bench: %s: winner retains %.3f of the original \
              parallelism, below the %.3f floor (TDR_BENCH_MIN_RETAINED)"
             r.name r.retained floor))
    rows;
  nonfinish

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let score_json (s : Score.t) =
  J.Obj
    [
      ("work", J.Int s.Score.work);
      ("cpl", J.Int s.Score.cpl);
      ("makespan", J.Int s.Score.makespan);
      ("parallelism", Harness.ratio s.Score.parallelism);
    ]

let candidate_json (c : Strategy.candidate) =
  J.Obj
    [
      ("kind", J.Str (Strategy.kind_name c.Strategy.kind));
      ("produced", J.Bool (c.Strategy.program <> None));
      ("verified", J.Bool c.Strategy.verified);
      ("rounds", J.Int c.Strategy.rounds);
      ("score", Option.fold ~none:J.Null ~some:score_json c.Strategy.score);
    ]

let row_json r =
  J.Obj
    [
      ("name", J.Str r.name);
      ( "winner",
        J.Str (Strategy.kind_name r.outcome.Strategy.winner.Strategy.kind) );
      ("retained", Harness.ratio r.retained);
      ("tournament_s", J.Float r.tournament_s);
      ("original", score_json r.original);
      ( "candidates",
        J.List (List.map candidate_json r.outcome.Strategy.candidates) );
    ]

let report ~quick ~nonfinish rows =
  J.Obj
    [
      ("bench", J.Str "strategies");
      ("quick", J.Bool quick);
      ("min_retained", J.Float (min_retained ()));
      ("nonfinish_winners", J.Int nonfinish);
      ("rows", J.List (List.map row_json rows));
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sweep ~quick () =
  Fmt.pr "== strategies: repair-strategy tournament on the CPL simulator ==@.";
  Fmt.pr
    "(cpl = critical path of the verified candidate; '-' = strategy \
     inapplicable or unverified; retained = winner parallelism / original \
     parallelism)@.";
  Fmt.pr "%-9s %9s %8s %8s %8s %8s  %-9s %9s@." "program" "orig-par"
    "fin-cpl" "iso-cpl" "eli-cpl" "chk-cpl" "winner" "retained";
  let rows =
    List.map
      (fun entry ->
        let r = measure entry in
        Fmt.pr "%-9s %9.2f %8s %8s %8s %8s  %-9s %9.3f@." r.name
          r.original.Score.parallelism
          (cpl_cell (candidate r Strategy.Finish))
          (cpl_cell (candidate r Strategy.Isolated))
          (cpl_cell (candidate r Strategy.Elide))
          (cpl_cell (candidate r Strategy.Chunk))
          (Strategy.kind_name r.outcome.Strategy.winner.Strategy.kind)
          r.retained;
        r)
      (suite ~quick ())
  in
  let nonfinish = assert_rows rows in
  Fmt.pr
    "every winner race-free and never worse than finish insertion; %d of \
     %d rows select a non-finish winner@."
    nonfinish (List.length rows);
  Harness.write ~quick "strategies" (report ~quick ~nonfinish rows)

let run () = sweep ~quick:false ()

let run_quick () = sweep ~quick:true ()
