(** Schedule-fuzzing differential validation of (claimed) race-free
    programs: K deterministic fuzzed schedules must each reproduce the
    sequential interpreter's printed-line multiset and final global
    state.  Used by [repair --validate-par] and the differential test
    layer. *)

type request = {
  schedules : int;  (** how many fuzzed schedules to run *)
  seed : int;  (** schedule [k] uses seed [seed + k] *)
  budget_ms : int option;
      (** wall-clock budget; remaining schedules are skipped (and the run
          marked degraded) once it is exceeded.  [Some 0] skips all —
          deterministically, which the CLI tests rely on. *)
}

val default_request : request
(** 10 schedules, seed 1, no budget. *)

type divergence = {
  schedule_seed : int;  (** replay with [run --par=1 --seed] this value *)
  detail : string;
}

type t = {
  requested : int;
  ran : int;
  skipped : int;  (** schedules not run because the budget ran out *)
  divergences : divergence list;
  engine : Engine.stats option;
      (** scheduler counters summed over the schedules that ran
          ({!Engine.add_stats}); [None] when every schedule raised or
          none ran *)
}

val ok : t -> bool
(** No divergences and nothing skipped. *)

(** What every schedule must reproduce: the sequential run's printed
    lines as a sorted multiset and its final globals digest. *)
type reference = { lines : string list; digest : string }

(** The reference of a depth-first run of the program. *)
val reference : Rt.Interp.result -> reference

(** [check prog] runs the sequential reference once, unless the caller
    already ran the program and passes its [reference], then [schedules]
    fuzzed schedules (seeds [seed], [seed+1], ...).  A schedule that
    raises is reported as a divergence rather than escaping. *)
val check :
  ?fuel:int ->
  ?budget_ms:int ->
  ?schedules:int ->
  ?seed:int ->
  ?reference:reference ->
  Mhj.Ast.program ->
  t

val of_request :
  ?fuel:int -> ?reference:reference -> request -> Mhj.Ast.program -> t

val sorted_lines : string -> string list
(** Output lines as a sorted multiset (order is schedule-dependent). *)

val pp : t Fmt.t
