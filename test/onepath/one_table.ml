(* Guard: every named flag of tdrepair is a row of the Options_cli table
   (bin/options_cli.ml), read through its one converter, which checks
   the row's declared range.  A flag declared by hand elsewhere in bin/
   -- an Arg.info with a name, an Arg.opt, an Arg.flag -- is how flags
   without a range got in, so this test fails on one, naming the file
   and line.  Positional arguments ([Arg.pos], [info []]) stay with the
   command bodies. *)

let table = "bin/options_cli.ml"

(* Cmdliner's named-argument constructors, and an alias of Arg that
   would hide them. *)
let forbidden =
  List.map Str.regexp
    [ {|\b\(opt\|opt_all\|flag\|flag_all\|vflag\|vflag_all\)\b|};
      {|module +[A-Za-z_0-9]+ *= *\(Cmdliner\.\)?Arg\b|} ]

(* An [info] whose name list is not literally [[]].  String literals are
   blanked, so a named [info [ "x" ]] reads [info [     ]].  [Cmd.info]
   names a subcommand, not a flag. *)
let named_info line =
  let empty = Str.regexp {| *\[\]|} in
  let rec from i =
    match Str.search_forward (Str.regexp {|\binfo\b|}) line i with
    | exception Not_found -> false
    | j ->
        let cmd = j >= 4 && String.sub line (j - 4) 4 = "Cmd." in
        (not (cmd || Str.string_match empty line (j + 4))) || from (j + 4)
  in
  from 0

let () =
  let files = List.filter (fun f -> f <> table) (Scan.ml_files "bin") in
  if not (List.mem "bin/tdrepair.ml" files) then begin
    Printf.eprintf "one_table: bin/tdrepair.ml not found under %s\n" Scan.root;
    exit 1
  end;
  let bad =
    List.concat_map
      (Scan.violations (fun line ->
           named_info line || List.exists (Scan.matches line) forbidden))
      files
  in
  if bad <> [] then begin
    prerr_endline
      "one_table: declare a named flag as a row of bin/options_cli.ml, not \
       by hand:";
    List.iter prerr_endline bad;
    exit 1
  end;
  Printf.printf "one_table: %d source(s), every named flag a table row\n"
    (List.length files)
