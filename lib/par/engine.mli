(** Parallel async-finish execution backend on OCaml 5 domains.

    Runs a normalized Mini-HJ program for real — [async] bodies execute
    concurrently instead of depth-first — with the same value semantics
    and cost model as {!Rt.Interp}.  Two modes:

    - {!Domains}: [n] workers on [n] domains, help-first work stealing
      over per-worker Chase-Lev {!Deque}s; [seed] drives victim
      selection.  Timing-dependent (real parallelism).
    - {!Fuzz}: a single worker whose seeded PRNG chooses the schedule
      (inline-vs-defer at each [async], yields at statement boundaries,
      pool order at [finish] joins).  Fully deterministic: the same seed
      replays the same schedule, which is what the schedule-fuzzing
      differential tests and [repair --validate-par] rely on.

    Both modes run the program compiled by the shared evaluator
    ({!Rt.Eval}); this module supplies its scheduling hooks.  A spawned
    task runs on a copy of its spawner's slot frame ([Array.copy] at the
    spawn point), so no frame is ever written by two tasks; globals live
    in one slot array filled during the sequential initializer phase, and
    afterwards only its slots and array cells race, which is memory-safe
    under the OCaml 5 memory model.  Racy programs may produce different
    outputs/final states across schedules — that is the point — but never
    memory-unsafe behavior (DESIGN.md §9).

    Fuel is a global [Atomic] decremented in per-worker batches; each
    batch flush also polls the watchdog deadline armed on the domain that
    called {!run}, so [--timeout-ms] bounds Domains workers too.  Pacing
    ([pace_ns] per cost unit) is paid as debt-based sleeping so that
    wall-clock speedup reflects the schedule's overlap even when the
    interpreter itself is not the bottleneck. *)

type mode =
  | Fuzz of { seed : int }  (** deterministic schedule exploration *)
  | Domains of { n : int; seed : int }  (** real parallel execution *)

type policy = {
  inline_pct : int;  (** chance (0-100) an [async] runs inline at spawn *)
  yield_pct : int;
      (** chance (0-100) of running a pooled task at a statement boundary
          (Fuzz mode only) *)
}

val fuzz_policy : policy
(** Default for {!Fuzz}: 45% inline, 10% yield. *)

val domains_policy : policy
(** Default for {!Domains}: always defer (maximize available parallelism),
    never yield. *)

(** Scheduler counters that only exist in one mode.  The old flat record
    exposed [n_steals] unconditionally, which read as a plausible zero on
    Fuzz runs (a single worker never steals); tagging by mode makes
    "no steal counter" unrepresentable instead of silently zero. *)
type sched_stats =
  | Fuzz_stats of {
      n_inlined : int;  (** asyncs the PRNG chose to run at the spawn point *)
      n_pooled : int;  (** asyncs deferred to the task pool *)
      n_yields : int;  (** pooled tasks run at statement boundaries *)
    }
  | Domains_stats of {
      n_steals : int;  (** successful steals across all workers *)
      n_deque_grows : int;  (** Chase-Lev buffer doublings *)
    }

type stats = {
  n_tasks : int;  (** asyncs spawned *)
  n_fuel_batches : int;  (** per-worker batch flushes against global fuel *)
  sched : sched_stats;
}

(** Pointwise sum, for aggregating across runs (e.g. a
    {!Validate} sweep).
    @raise Invalid_argument when the operands' modes differ. *)
val add_stats : stats -> stats -> stats

(** The stats as ["engine."]-prefixed counters for an {!Obs.Metrics}
    registry.  Only the keys of the run's own mode are present; callers
    wanting a stable schema should [declare] the full key set first. *)
val stats_counters : stats -> (string * int) list

type result = {
  output : string;  (** everything [print]ed; line order is schedule-dependent *)
  globals : (string * Rt.Value.t) list;  (** final global state, sorted *)
  digest : string;  (** {!Rt.Value.digest_globals} of [globals] *)
  work : int;  (** total cost units charged across all workers *)
  wall_s : float;  (** wall-clock seconds of the parallel phase *)
  n_domains : int;
  stats : stats;  (** scheduler counters, tagged by [mode] *)
}

(** The most workers a {!Domains} run may ask for: the OCaml 5.1
    runtime caps a process at 128 domains ([Max_domains]), and a spawn
    beyond it fails with every earlier worker already running. *)
val max_domains : int

(** Execute [prog] from [main].

    @param fuel shared across workers; {!Rt.Interp.Out_of_fuel} when spent
      (checked at batch granularity, so the abort point is approximate)
    @param pace_ns nanoseconds of sleep-debt per cost unit (default 0).
      Pacing makes wall-clock time proportional to the schedule's span
      even when interpretation itself is faster, so speedup measurements
      reflect schedule overlap rather than host core count.
    @param policy scheduling probabilities; defaults to {!fuzz_policy} or
      {!domains_policy} according to [mode]
    @raise Rt.Interp.Runtime_error as {!Rt.Interp.run} (first failing
      task wins; the run is cancelled and joined before re-raising)
    @raise Invalid_argument for [Domains { n }] with [n > max_domains],
      before any domain is spawned *)
val run :
  ?fuel:int ->
  ?pace_ns:int ->
  ?policy:policy ->
  mode:mode ->
  Mhj.Ast.program ->
  result
