(* Guard: every caller in lib/ and bin/ detects through Driver.detect,
   which reaches the detectors through Vclock.Select.detect.  A second
   call site of Espbags.Detector.detect or Vclock.Seq.detect is how the
   race paths drifted apart before (grade-file ignored isolated
   sections), so this test fails on one, naming the file and line. *)

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

let () =
  let files = Scan.ml_files "lib" @ Scan.ml_files "bin" in
  if List.length files < 50 then begin
    Printf.eprintf "one_path: found only %d sources under %s\n"
      (List.length files) Scan.root;
    exit 1
  end;
  let bad =
    List.concat_map
      (Scan.violations (fun line -> List.exists (Scan.matches line) forbidden))
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
