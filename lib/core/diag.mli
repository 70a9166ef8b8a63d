(** Typed diagnostics for the repair pipeline.

    Every failure mode of the pipeline — malformed input, runtime faults of
    the analyzed program, placement infeasibility, resource exhaustion —
    is surfaced as a {!t}: a severity, the pipeline stage that produced it,
    an optional source location, and a human-readable message.  Raw
    [Invalid_argument]/[Failure] exceptions never escape a stage boundary;
    they are converted here (see {!Guard.at_stage} and {!Guard.capture}). *)

type severity = Error | Warning | Info

(** The pipeline stage a diagnostic originates from.  [Budget] marks
    resource exhaustion (interpreter fuel, S-DPST nodes, DP work); [Lint]
    marks the static analysis layer (MHP/race lint, static verifier). *)
type stage = Parse | Typecheck | Interp | Detect | Place | Insert | Budget | Lint

type t = {
  severity : severity;
  stage : stage;
  loc : Mhj.Loc.t option;  (** source position, when one is known *)
  message : string;
}

exception Fail of t
(** The single typed escape hatch of the pipeline: raised at failure sites
    that know their stage, caught only at stage boundaries. *)

val make : ?severity:severity -> ?loc:Mhj.Loc.t -> stage:stage -> string -> t

(** Build a diagnostic from a format string and raise it as {!Fail}. *)
val failf :
  ?loc:Mhj.Loc.t -> stage:stage -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** An internal-invariant violation surfaced as a diagnostic (the message
    is prefixed so bug reports are distinguishable from input errors). *)
val internal : stage:stage -> string -> t

val pp_severity : severity Fmt.t

val pp_stage : stage Fmt.t

(** Renders ["error[interp] at 3:14: index 9 out of bounds [0..4)"], or
    without the [at ...] part when no real location is attached. *)
val pp : t Fmt.t

val to_string : t -> string

(** Classify the known typed exceptions of the lower pipeline layers
    (lexer/parser/typechecker errors, interpreter runtime errors, fuel
    exhaustion, DP unsatisfiability).  [None] for unrecognized exceptions. *)
val of_exn : exn -> t option

(** Adapt a static-analysis finding ({!Static.Finding.t}) into a [Lint]
    diagnostic, folding the rule name into the message. *)
val of_finding : Static.Finding.t -> t
