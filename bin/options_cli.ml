(* The CLI face of the job options: one generic fold over the codec
   table of Repair.Options turns every row into its cmdliner term, so a
   flag's name, help, default and range check come from the row. *)

open Cmdliner
module O = Repair.Options

let input_error fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "error: %s@." m;
      exit Repair.Exit_code.input_error)
    fmt

let int_conv check =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Fmt.str "%S is not an integer" s))
    | Some n -> (
        match check n with None -> Ok n | Some why -> Error (`Msg why))
  in
  Arg.conv (parse, Fmt.int)

(* A count ([lo] = 1) or budget ([lo] = 0): a usage error below [lo],
   or above [most]. *)
let at_least ?(most = max_int) lo =
  int_conv (fun n ->
      if n > most then Some (Fmt.str "must be at most %d" most)
      else if n >= lo then None
      else Some (if lo = 0 then "must be non-negative" else "must be positive"))

(* One row's flag, absent meaning [default].  Out-of-range values are
   usage errors (exit 124); a malformed NAME=INT is an input error (exit
   3), like an override naming no int global. *)
let arg (type a) (r : a O.row) (default : a) : a Term.t =
  let flag_info = Arg.info [ O.flag_name r ] ~docv:r.docv ~doc:r.doc in
  match r.kind with
  | O.Flag -> Arg.(value & flag flag_info)
  | O.Enum names -> Arg.(value & opt (enum names) default flag_info)
  | O.Int check -> Arg.(value & opt (some (int_conv check)) default flag_info)
  | O.Path -> Arg.(value & opt (some string) default flag_info)
  | O.Sets ->
      let parse spec =
        match O.parse_set spec with
        | Ok b -> b
        | Error m -> input_error "--%s %s: %s" (O.flag_name r) spec m
      in
      let spell (k, n) = Fmt.str "%s=%d" k n in
      Term.(
        const (List.map parse)
        $ Arg.(value & opt_all string (List.map spell default) flag_info))

(* Every row [cmd] takes, folded into one record that
   Repair.Options.validate accepts (or exit 3). *)
let term cmd =
  let add acc (O.Field (r, default)) =
    if List.mem cmd r.commands then Term.(const r.set $ arg r default $ acc)
    else acc
  in
  let check o =
    match O.validate cmd o with Ok () -> o | Error m -> input_error "%s" m
  in
  Term.(
    const check
    $ List.fold_left add (const O.default) (O.fields O.default))
