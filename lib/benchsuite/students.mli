(** Synthetic student homework submissions and their grading (paper §7.4).

    59 deterministic quicksort variants in the paper's mistake-class
    proportions — 5 racy, 29 over-synchronized, 25 optimal — graded by the
    real pipeline: races remaining, then critical-path comparison against
    the tool's own repair. *)

type expected = Racy | Oversync | Optimal

val pp_expected : expected Fmt.t

type submission = { id : int; expected : expected; src : string }

(** The 59 submissions.  @param n array size of the sorting exercise. *)
val submissions : ?n:int -> unit -> submission list

type marks = {
  graded : expected;  (** the tool's classification *)
  races : int;  (** race reports surviving isolated discharge *)
  cpl : int;  (** the program's critical path length *)
  tool_cpl : int;  (** critical path length of the tool's repair *)
}

(** Grade one program as §7.4 does, beside its {!Repair.Driver.detect}
    run: races first, then the critical path against the tool's repair of
    the finish-stripped program.  [grade] and [grade-file] use it. *)
val mark : Mhj.Ast.program -> Repair.Driver.detection * marks

type verdict = { submission : submission; marks : marks }

val grade : submission -> verdict

type summary = { racy : int; oversync : int; optimal : int; mismatches : int }

(** Grade the whole class; the paper's counts are 5 / 29 / 25. *)
val grade_all : ?n:int -> unit -> summary * verdict list
