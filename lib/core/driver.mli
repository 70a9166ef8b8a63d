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
  detect_time : float;  (** seconds spent executing + detecting *)
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
type backend = [ `Espbags | `Vclock | `Auto ]

(** One placement pass: the dynamic placement + location mapping for the
    races of a single detector run, without touching the program.
    Trace-file workflows (paper Appendix A) drive this directly.
    [guard] supplies DP budgets (default unlimited). *)
val place_for_tree :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Espbags.Race.t list ->
  group_result list * Static_place.merged

(** Paper §6.1's incremental strategy: solve NS-LCA groups one finish at a
    time against a {e live} S-DPST — splice the finish node in (step d),
    drop the races it resolves, re-checked with Theorem 1 (step e), and
    regroup the remainder, whose NS-LCAs may have changed (step f).
    Mutates the tree. *)
val place_incremental :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Sdpst.Node.tree ->
  Espbags.Race.t list ->
  group_result list * Static_place.merged

val default_max_iterations : int

(** Repair [prog]: iterate detection and placement until race-free.

    @param mode detector flavour (default {!Espbags.Detector.Mrw})
    @param backend which detector implementation executes the program
      (default [`Espbags]; [`Auto] resolves per workload)
    @param strategy [`Batch] (default) solves every NS-LCA group of a
      detection run at once; [`Incremental] is the paper's §6.1 live-tree
      loop.  Both converge; [`Batch] does less work on large race sets.
    @param max_iterations safety bound (default 10)
    @param fuel interpreter fuel per run
    @param budgets resource budgets (default {!Guard.unlimited}); on
      exhaustion the repair degrades gracefully and records how in the
      report's [degradations]
    @param static_prune run the static MHP pre-pass ({!Static.Prune})
      before each detection run and skip instrumenting accesses it proves
      sequential; with MRW the reported race set is unchanged
    @param static_verify after convergence, run the static race checker
      on the repaired program and record the verdict in [verified_static]
      (with unproven pairs in [static_residual])
    @param validate_par after convergence, re-run the repaired program
      under fuzzed parallel schedules and record the differential outcome
      in [validated_par] (see {!Par.Validate})
    @param shadow_chunk grow the detector's shadow tables in slab chunks
      of this many slots (default {!Tdrutil.Islab.default_chunk}); the
      reported races are unchanged (DESIGN.md §15)
    @param spill bound in-memory race records by draining overflow to
      this file in {!Espbags.Trace} format; reported races unchanged
    @raise Unrepairable if some race admits no scope-valid fix
    @raise Diag.Fail on typed pipeline failures *)
val repair :
  ?mode:Espbags.Detector.mode ->
  ?backend:backend ->
  ?strategy:[ `Batch | `Incremental ] ->
  ?max_iterations:int ->
  ?fuel:int ->
  ?budgets:Guard.budgets ->
  ?static_prune:bool ->
  ?static_verify:bool ->
  ?validate_par:Par.Validate.request ->
  ?shadow_chunk:int ->
  ?spill:string ->
  Mhj.Ast.program ->
  report

(** Total variant of {!repair}: every failure mode — malformed input,
    runtime faults of the analyzed program, fuel exhaustion, placement
    infeasibility, injected faults, internal invariant violations — comes
    back as a typed diagnostic instead of an exception. *)
val repair_checked :
  ?mode:Espbags.Detector.mode ->
  ?backend:backend ->
  ?strategy:[ `Batch | `Incremental ] ->
  ?max_iterations:int ->
  ?fuel:int ->
  ?budgets:Guard.budgets ->
  ?static_prune:bool ->
  ?static_verify:bool ->
  ?validate_par:Par.Validate.request ->
  ?shadow_chunk:int ->
  ?spill:string ->
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
    rounds continue until every input's execution is race-free (or
    [max_rounds]).  An input that fails — malformed override, runtime
    fault, budget exhaustion, unrepairable race — lands in [failures]
    without stopping the other inputs.  The result includes the combined
    coverage of the input set — the paper's §9 test-suitability metric. *)
val repair_multi :
  ?mode:Espbags.Detector.mode ->
  ?backend:backend ->
  ?strategy:[ `Batch | `Incremental ] ->
  ?max_rounds:int ->
  ?fuel:int ->
  ?budgets:Guard.budgets ->
  inputs:(string * (string * int) list) list ->
  Mhj.Ast.program ->
  multi_report
