(** The tdrepair exit-code contract, shared between the CLI and the
    diagnostics layer.

    {v
    0  success (repair converged at full fidelity / command succeeded)
    1  internal error (a bug in the tool, not the input)
    2  repair did not converge within its iteration bound
    3  input error (parse, typecheck, or runtime fault of the program, or
       a file named on the command line that cannot be read or written)
    4  resource budget exhausted: the result, if any, is best-effort
       (a degradation fired: S-DPST pruning, DP interval-cover fallback)
    5  unrepairable: some race admits no scope-valid finish placement
    6  lint findings: [tdrepair lint] found at least one issue (the
       program was analyzable; the findings themselves are the result)
    7  unavailable: [tdrepair call] found no daemon to connect to
    v}

    The [grade-file] command keeps its own documented verdict codes
    ({!grade_racy} = 3, {!grade_oversync} = 4), which share numbers but not
    meaning with the pipeline contract above. *)

val ok : int

val internal_error : int

val not_converged : int

val input_error : int

val degraded : int

val unrepairable : int

val lint_findings : int

val unavailable : int

(** Verdict codes of the [grade-file] command (paper §7.4). *)
val grade_racy : int

val grade_oversync : int

(** Map a diagnostic to its contract exit code: input errors to
    {!input_error}, budget exhaustion to {!degraded}, placement/insertion
    failures to {!unrepairable}, everything else to {!internal_error}. *)
val of_diag : Diag.t -> int
