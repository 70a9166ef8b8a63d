(** The tdrepair exit-code contract (see exit_code.mli). *)

let ok = 0

let internal_error = 1

let not_converged = 2

let input_error = 3

let degraded = 4

let unrepairable = 5

let lint_findings = 6

let unavailable = 7

let grade_racy = 3

let grade_oversync = 4

let of_diag (d : Diag.t) =
  match d.Diag.stage with
  | Diag.Parse | Diag.Typecheck | Diag.Interp -> input_error
  | Diag.Budget -> degraded
  | Diag.Place | Diag.Insert -> unrepairable
  | Diag.Detect | Diag.Lint -> internal_error
