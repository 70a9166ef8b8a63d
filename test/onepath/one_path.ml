(* Guard: every caller in lib/ and bin/ detects through Driver.detect,
   which reaches the detectors through Vclock.Select.detect.  A second
   call site of Espbags.Detector.detect or Vclock.Seq.detect is how the
   race paths drifted apart before (grade-file ignored isolated
   sections), so this test fails on one, naming the file and line. *)

let here = Filename.dirname Sys.executable_name
let root = Filename.concat here "../.."

(* Files allowed to run a detector: the backend switch and the detectors'
   own modules. *)
let allowed =
  [ "lib/vclock/select.ml"; "lib/espbags/detector.ml";
    "lib/espbags/shadow.ml"; "lib/vclock/seq.ml" ]

(* Direct calls, and the aliases and first-class packings that would hide
   one from the call pattern. *)
let forbidden =
  List.map Str.regexp
    [ {|\bDetector\.detect\b|}; {|\bSeq\.detect\b|};
      {|module +[A-Za-z_0-9]+ *= *\(Espbags\.\)?Detector\b|};
      {|module +[A-Za-z_0-9]+ *= *Vclock\.Seq\b|};
      {|(module +\(Espbags\.Detector\|Vclock\.Seq\|Seq\)\b|};
      {|open +\(Espbags\.Detector\|Vclock\.Seq\)\b|} ]

(* [src] with comments and string literals blanked out (newlines kept,
   so line numbers survive): doc references are not calls. *)
let code_only src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec code i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then (
      blank i;
      blank (i + 1);
      comment 1 (i + 2))
    else if src.[i] = '"' then (
      blank i;
      string (i + 1))
    else if i + 2 < n && src.[i] = '\'' && src.[i + 2] = '\'' then code (i + 3)
    else if i + 3 < n && src.[i] = '\'' && src.[i + 1] = '\\' && src.[i + 3] = '\''
    then code (i + 4)
    else code (i + 1)
  and comment depth i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then (
      blank i;
      blank (i + 1);
      comment (depth + 1) (i + 2))
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then (
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2))
    else (
      blank i;
      comment depth (i + 1))
  and string i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then (
      blank i;
      blank (i + 1);
      string (i + 2))
    else if src.[i] = '"' then (
      blank i;
      code (i + 1))
    else (
      blank i;
      string (i + 1))
  in
  code 0;
  Bytes.to_string b

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec ml_files dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = dir ^ "/" ^ name in
         if Sys.is_directory (Filename.concat root rel) then ml_files rel
         else if Filename.check_suffix name ".ml" then [ rel ]
         else [])

let violations rel =
  let lines =
    String.split_on_char '\n' (code_only (read (Filename.concat root rel)))
  in
  List.concat
    (List.mapi
       (fun i line ->
         if
           List.exists
             (fun re ->
               match Str.search_forward re line 0 with
               | _ -> true
               | exception Not_found -> false)
             forbidden
         then [ Printf.sprintf "%s:%d: %s" rel (i + 1) (String.trim line) ]
         else [])
       lines)

let () =
  let files = ml_files "lib" @ ml_files "bin" in
  if List.length files < 50 then begin
    Printf.eprintf "one_path: found only %d sources under %s\n"
      (List.length files) root;
    exit 1
  end;
  let bad =
    List.concat_map violations
      (List.filter (fun f -> not (List.mem f allowed)) files)
  in
  if bad <> [] then begin
    prerr_endline
      "one_path: detect through Repair.Driver.detect, not a detector \
       directly:";
    List.iter prerr_endline bad;
    exit 1
  end;
  Printf.printf "one_path: %d sources, one detection path\n"
    (List.length files)
