(* What the source guards beside it share: the repository root, its
   .ml files, and a scan of a file's code -- comments and string literals
   blanked out -- or of its string literals alone, for lines that break
   a rule. *)

let here = Filename.dirname Sys.executable_name
let root = Filename.concat here "../.."

(* [src] with comments and string literals blanked out (newlines kept,
   so line numbers survive): doc references are not calls.  With
   [~strings:true], the string literals' contents alone, as written. *)
let mask ~strings src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let in_code i = if strings then blank i in
  let in_string i = if not strings then blank i in
  let rec code i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then (
      blank i;
      blank (i + 1);
      comment 1 (i + 2))
    else if src.[i] = '"' then (
      blank i;
      string (i + 1))
    else if i + 2 < n && src.[i] = '\'' && src.[i + 2] = '\'' then (
      for j = i to i + 2 do in_code j done;
      code (i + 3))
    else if i + 3 < n && src.[i] = '\'' && src.[i + 1] = '\\' && src.[i + 3] = '\''
    then (
      for j = i to i + 3 do in_code j done;
      code (i + 4))
    else (
      in_code i;
      code (i + 1))
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
      in_string i;
      in_string (i + 1);
      string (i + 2))
    else if src.[i] = '"' then (
      blank i;
      code (i + 1))
    else (
      in_string i;
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

(* Whether [re] matches anywhere in [line]. *)
let matches line re =
  match Str.search_forward re line 0 with
  | _ -> true
  | exception Not_found -> false

(* "FILE:LINE: code" for each line of [rel]'s code (or, with
   [~strings:true], of its string literals) that [bad] holds of. *)
let violations ?(strings = false) bad rel =
  String.split_on_char '\n' (mask ~strings (read (Filename.concat root rel)))
  |> List.mapi (fun i line ->
         if bad line then
           [ Printf.sprintf "%s:%d: %s" rel (i + 1) (String.trim line) ]
         else [])
  |> List.concat
