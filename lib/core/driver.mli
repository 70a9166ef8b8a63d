(** The test-driven repair driver (paper Figure 6 and §6.1): iterate
    detection, dynamic finish placement, and static insertion until the
    program is race-free for its input.

    Failure handling: every stage runs behind {!Guard.at_stage}, so
    pipeline failures surface as typed {!Diag.t} diagnostics (via
    {!Diag.Fail}) rather than raw [Failure]/[Invalid_argument] escapes;
    {!repair_checked} is the total entry point.  Resource budgets
    ({!Guard.budgets}) bound the interpreter, the S-DPST and the placement
    DP; exhaustion degrades gracefully (prune / interval covers) and is
    recorded in the report's [degradations]. *)

type group_result = {
  lca_id : int;  (** S-DPST node id of the NS-LCA *)
  n_vertices : int;
  n_edges : int;
  dp_cost : int;  (** optimal block completion time found by the DP *)
  fell_back : bool;
      (** the DP was bypassed (unsatisfiable or over budget) and per-edge
          minimal covers were used *)
  insertions : Valid.insertion list;
}

type iteration = {
  n_races : int;  (** raw race reports this run *)
  n_race_pairs : int;  (** distinct (source step, sink step) pairs *)
  n_groups : int;  (** distinct NS-LCAs *)
  groups : group_result list;
  merged : Static_place.merged;
  detect_time : float;
      (** seconds spent executing + detecting; next to none when the
          caller supplied the detection ({!repair_detected}) *)
  place_time : float;  (** seconds spent in placement (dynamic + static) *)
  sdpst_nodes : int;
  n_accesses : int;  (** accesses the detector checked this run *)
  n_skipped : int;  (** accesses skipped by the static prune pre-pass *)
}

type report = {
  program : Mhj.Ast.program;  (** the repaired program *)
  mode : Espbags.Detector.mode;
  iterations : iteration list;
  converged : bool;  (** the final detection run found no races *)
  final_races : int;  (** races remaining (0 when converged) *)
  degradations : Guard.degradation list;
      (** budget degradations that fired, in order; empty means the repair
          ran at full fidelity *)
  verified_static : bool option;
      (** [static_verify] verdict on the converged program: [Some true]
          means race-free for every input, not just the test input;
          [Some false] means unproven MHP pairs remain (see
          [static_residual]); [None] means verification was not requested
          or the repair did not converge *)
  static_residual : Static.Finding.t list;
      (** the unproven pairs behind [verified_static = Some false] *)
  validated_par : Par.Validate.t option;
      (** [validate_par] outcome on the converged program: the repaired
          program re-executed under fuzzed parallel schedules
          ({!Par.Engine.Fuzz}) and compared against the sequential
          semantics.  [None] when validation was not requested or the
          repair did not converge.  Skipped schedules (wall-clock budget)
          are also recorded as a {!Guard.Validate_par_skipped}
          degradation. *)
  metrics : (string * int) list;
      (** sorted snapshot of the run's {!Obs.Metrics} registry —
          detector, pruner, engine and driver counters.  The full key
          schema is always present (zeros for subsystems that did not
          run); [tdrepair repair --metrics=FILE] dumps it as one JSON
          object. *)
}

exception Unrepairable of string
(** Some race admits no scope-valid finish placement. *)

(** Sequential detection backend: the ESP-bags detectors (the paper's
    algorithm, default), the vector-clock detector ({!Vclock.Seq},
    report-identical — the differential suite holds them record-equal),
    or a per-workload automatic pick ({!Vclock.Select.resolve}).  The
    resolved choice lands in [report.metrics] as [detector.backend]
    (0 = espbags, 1 = vclock). *)
type backend = Options.backend

(** One sequential detection run under a job's options: the static
    pre-pass when [static_prune] is set, the resolved backend over the
    shadow chunk size, spill file and fuel budget the options ask for, and
    isolated-section discharge of the reported races.  The CLI's
    [detect], [explain] and [grade-file], the daemon's detect jobs,
    student grading, every repair iteration and every tournament verify
    run go through it, and decide from its pair sets alone. *)
type detection = {
  backend : Vclock.Select.choice;  (** the resolved backend *)
  prune : Static.Prune.t option;  (** the pre-pass, when [static_prune] *)
  run : Vclock.Select.detection;
      (** the detector's own result; its race records, discharged ones
          included, are for printing only ({!Isolate.suppress}) *)
  pairs : Espbags.Race.Pairs.t Lazy.t;
      (** the distinct step pairs of the races that survive isolated
          discharge ({!Isolate.partition}): what every verdict, count and
          placement reads *)
  discharged : Espbags.Race.Pairs.t Lazy.t;
      (** the step pairs isolated sections discharge *)
}

(** [options.sets] is not read: overrides are applied where the program
    is loaded ({!Options.apply_sets}).
    @raise Diag.Fail on typed failures of the pre-pass or the run *)
val detect : Options.t -> Mhj.Ast.program -> detection

(** What placement lifts of a step-pair set: every step moved to the
    first live step of its outermost spawn-free scope
    ({!Sdpst.Node.spawn_free_top}), a step with none left alone, and
    the moved pairs merged ({!Espbags.Race.Pairs.map}), still in report
    order, each with the reports behind it.  No finish boundary can fall
    between the steps of one spawn-free scope, so placement from the
    projected pairs equals placement from the step pairs (DESIGN.md §4,
    "Projection").  [driver.lifted_pairs] counts them. *)
val project : Espbags.Race.Pairs.t -> Espbags.Race.Pairs.t

(** One placement pass on a detector run's distinct step pairs (a
    {!detection}'s [pairs]), without touching the program: the pairs
    are projected ({!project}), grouped by NS-LCA and placed.  [guard]
    supplies DP budgets (default unlimited). *)
val place_pairs :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Espbags.Race.Pairs.t ->
  group_result list * Static_place.merged

(** {!place_pairs} on a race list, for the trace-file workflows (paper
    Appendix A). *)
val place_for_tree :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Espbags.Race.t list ->
  group_result list * Static_place.merged

val default_max_iterations : int

(** Repair [prog]: iterate detection and placement until race-free, at
    most {!default_max_iterations} times.

    @param options the job options (default {!Options.default}).  The
      backend ([`Auto] resolves per workload), the placement search, the
      static pre-pass and verifier, the budgets (on exhaustion the repair
      degrades gracefully and records how in the report's
      [degradations]), the shadow chunk size and the spill file all apply
      to every iteration.  [strategy] and [sets] are not read here: see
      {!Strategy.run} and {!Options.apply_sets}.
    @param validate_par after convergence, re-run the repaired program
      under fuzzed parallel schedules and record the differential outcome
      in [validated_par] (see {!Par.Validate})
    @raise Unrepairable if some race admits no scope-valid fix
    @raise Diag.Fail on typed pipeline failures *)
val repair :
  ?options:Options.t ->
  ?validate_par:Par.Validate.request ->
  Mhj.Ast.program ->
  report

(** {!repair}, without parallel validation, sharing detection runs with
    its caller, so that no program is run twice.  [first], when given, is
    the first iteration's detection: {!detect} of the input under
    [options] with its backend resolved.  The repair may mutate it:
    incremental placement splices finishes into its S-DPST and the node
    budget prunes it.  The detection of the last iteration comes back
    beside the report, which itself holds no S-DPST; when the report has
    converged, it is the race-free run of [report.program]. *)
val repair_detected :
  ?options:Options.t ->
  ?first:detection ->
  Mhj.Ast.program ->
  report * detection

(** Total variant of {!repair}: every failure mode — malformed input,
    runtime faults of the analyzed program, fuel exhaustion, placement
    infeasibility, injected faults, internal invariant violations — comes
    back as a typed diagnostic instead of an exception. *)
val repair_checked :
  ?options:Options.t ->
  ?validate_par:Par.Validate.request ->
  Mhj.Ast.program ->
  (report, Diag.t) result

(** All placements inserted across the report's iterations. *)
val total_placements : report -> Mhj.Transform.placement list

(** Multi-input repair (paper §2: "the tool is applied iteratively for
    different test inputs"). *)
type multi_report = {
  final : Mhj.Ast.program;  (** repaired for every processable input *)
  per_input : (string * report) list;  (** input label -> last repair run *)
  failures : (string * Diag.t) list;
      (** inputs whose repair failed or exhausted its budget; the
          remaining inputs are still processed *)
  all_converged : bool;  (** every input converged and none failed *)
  coverage : Coverage.t;  (** combined coverage of the executable inputs *)
}

(** Repair one program under several test inputs, each a labelled set of
    int-global overrides ({!Mhj.Transform.set_global_int}).  Placements
    demanded under any input are merged into the shared base program;
    rounds continue until every input's execution is race-free (at most
    10 rounds).  Each input's overrides are applied on top of the base
    program; [options] is passed to every {!repair}.  An input that fails
    — malformed override, runtime fault, budget exhaustion, unrepairable
    race — lands in [failures]
    without stopping the other inputs.  The result includes the combined
    coverage of the input set — the paper's §9 test-suitability metric. *)
val repair_multi :
  ?options:Options.t ->
  inputs:(string * (string * int) list) list ->
  Mhj.Ast.program ->
  multi_report
