(** Typed diagnostics for the repair pipeline (see diag.mli). *)

type severity = Error | Warning | Info

type stage = Parse | Typecheck | Interp | Detect | Place | Insert | Budget | Lint

type t = {
  severity : severity;
  stage : stage;
  loc : Mhj.Loc.t option;
  message : string;
}

exception Fail of t

let make ?(severity = Error) ?loc ~stage message =
  { severity; stage; loc; message }

let failf ?loc ~stage fmt =
  Fmt.kstr (fun message -> raise (Fail (make ?loc ~stage message))) fmt

let internal ~stage message =
  make ~stage ("internal error (please report): " ^ message)

let pp_severity ppf s =
  Fmt.string ppf
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let pp_stage ppf s =
  Fmt.string ppf
    (match s with
    | Parse -> "parse"
    | Typecheck -> "typecheck"
    | Interp -> "interp"
    | Detect -> "detect"
    | Place -> "place"
    | Insert -> "insert"
    | Budget -> "budget"
    | Lint -> "lint")

let pp ppf d =
  match d.loc with
  | Some l when not (Mhj.Loc.is_dummy l) ->
      Fmt.pf ppf "%a[%a] at %a: %s" pp_severity d.severity pp_stage d.stage
        Mhj.Loc.pp l d.message
  | _ ->
      Fmt.pf ppf "%a[%a]: %s" pp_severity d.severity pp_stage d.stage
        d.message

let to_string d = Fmt.str "%a" pp d

let of_exn = function
  | Fail d -> Some d
  | Mhj.Lexer.Error (m, l) -> Some (make ~loc:l ~stage:Parse m)
  | Mhj.Parser.Error (m, l) -> Some (make ~loc:l ~stage:Parse m)
  | Mhj.Typecheck.Error (m, l) -> Some (make ~loc:l ~stage:Typecheck m)
  | Rt.Interp.Runtime_error (m, l) -> Some (make ~loc:l ~stage:Interp m)
  | Rt.Watchdog.Timeout ms ->
      Some
        (make ~stage:Budget
           (Fmt.str
              "wall-clock watchdog: job exceeded its %d ms timeout (raise \
               --timeout-ms, or check the program for non-termination)"
              ms))
  | Rt.Interp.Out_of_fuel ->
      Some
        (make ~stage:Budget
           "execution exceeded its fuel budget (raise --budget-fuel, or \
            check the program for non-termination)")
  | Dp_place.Unsatisfiable (i, j) ->
      Some
        (make ~stage:Place
           (Fmt.str
              "no scope-valid finish placement resolves the dependences of \
               vertices %d..%d"
              i j))
  | _ -> None

(* Adapt a static-analysis finding into the pipeline's diagnostic type.
   The rule name is folded into the message; the [lint] stage marks the
   origin. *)
let of_finding (f : Static.Finding.t) =
  let severity =
    match f.Static.Finding.severity with
    | Static.Finding.Warning -> Warning
    | Static.Finding.Info -> Info
  in
  make ~severity ~loc:f.Static.Finding.loc ~stage:Lint
    (Static.Finding.rule_name f.Static.Finding.rule ^ ": " ^ f.Static.Finding.msg)
