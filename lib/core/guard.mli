(** Resource budgets and graceful degradation for the repair pipeline.

    The two blowups the paper itself flags (DESIGN.md §4) — S-DPST memory
    on long executions and the O(n³·d) placement DP on wide dependence
    graphs — are bounded here, each with a principled degradation path
    instead of an abort:

    - {b S-DPST node budget}: when a detection run's tree exceeds the
      budget, race-free regions are collapsed with
      {!Sdpst.Analysis.prune} (placement-preserving by construction) and
      the repair continues on the pruned tree.
    - {b DP work budget}: placement effort per repair call, measured in
      DP cell updates (~n³ per group).  Within the budget the driver
      walks the fidelity chain {e full (uncoalesced) DP → coalesced DP →
      per-edge interval covers}; the interval-cover tier is recorded as a
      degradation so callers can distinguish optimal from best-effort
      repairs.
    - {b fuel budget}: a cap on interpreter cost units per run, folded
      into {!Rt.Interp.run}'s fuel.

    Every degradation that fired is recorded on the guard and surfaced in
    the repair report and the CLI exit code ({!Exit_code.degraded}). *)

type budgets = {
  fuel : int option;  (** interpreter cost units per execution *)
  sdpst_nodes : int option;  (** prune trigger: max S-DPST nodes *)
  dp_work : int option;  (** total DP cell updates per repair call *)
}

(** No limits: today's exact behavior, no degradation ever fires. *)
val unlimited : budgets

type degradation =
  | Sdpst_pruned of { nodes_before : int; nodes_removed : int }
      (** the S-DPST exceeded its node budget and race-free regions were
          collapsed before placement *)
  | Dp_interval_cover of { lca_id : int }
      (** the DP budget could not afford this group's DP; its edges were
          covered by minimal per-edge intervals instead *)
  | Dp_unsat_fallback of { lca_id : int }
      (** the DP was unsatisfiable and per-edge covers were used *)
  | Validate_par_skipped of { ran : int; requested : int }
      (** [--validate-par]'s wall-clock budget ran out before all
          requested fuzzed schedules executed *)
  | Job_timeout of { ms : int }
      (** the per-job wall-clock watchdog expired: the job was killed
          mid-pipeline and its result is a best-effort partial ([tdrepair
          serve] jobs and [--timeout-ms] one-shot runs) *)

val pp_degradation : degradation Fmt.t

(** Mutable per-repair-call tracker: budgets plus spent work plus the
    degradations that fired, in order. *)
type t

val make : budgets -> t

val budgets : t -> budgets

val note : t -> degradation -> unit

val degradations : t -> degradation list

(** [dp_affordable t w] — does charging [w] more DP work units stay within
    the budget?  Always true without a [dp_work] budget. *)
val dp_affordable : t -> int -> bool

val dp_charge : t -> int -> unit

(** Effective interpreter fuel: the minimum of the fuel budget and any
    active {!Faultinject.Interp_trap} cap. *)
val effective_fuel : budgets -> int option

(** [at_stage stage f] runs [f], converting any escaping exception that is
    neither an already-typed diagnostic ({!Diag.of_exn}), an injected
    fault, nor accepted by [passthrough] into a located internal
    {!Diag.Fail} attributed to [stage].  This is the stage boundary the
    raw [Invalid_argument]/[Failure] sites of the lower layers are caught
    at. *)
val at_stage :
  ?passthrough:(exn -> bool) -> Diag.stage -> (unit -> 'a) -> 'a

(** [capture ?classify f] — total evaluation: every exception becomes a
    diagnostic.  [classify] runs first (for caller-private exceptions such
    as [Driver.Unrepairable]), then {!Diag.of_exn} and injected-fault
    conversion, then a catch-all internal diagnostic. *)
val capture :
  ?classify:(exn -> Diag.t option) -> (unit -> 'a) -> ('a, Diag.t) result
