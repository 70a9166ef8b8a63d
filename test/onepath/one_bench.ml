(* Guard: every bench sweep reads its knobs and writes its
   BENCH_<name>.json through bench/harness.ml.  A sweep that reads the
   environment itself, or formats JSON keys by hand in a format string,
   is how the knobs multiplied and how a garbage value could reach a
   committed file, so this test fails on one, naming the file and
   line. *)

let harness = "bench/harness.ml"

let getenv = Str.regexp {|\bgetenv\(_opt\)?\b|}

(* An escaped-quote JSON key inside a string literal, {|\"name\":|}. *)
let json_key = Str.regexp {|\\"[A-Za-z_0-9]*\\" *:|}

let () =
  let files = Scan.ml_files "bench" in
  if not (List.mem "bench/main.ml" files) then begin
    Printf.eprintf "one_bench: bench/main.ml not found under %s\n" Scan.root;
    exit 1
  end;
  let bad =
    List.concat_map
      (Scan.violations (fun line -> Scan.matches line getenv))
      (List.filter (fun f -> f <> harness) files)
    @ List.concat_map
        (Scan.violations ~strings:true (fun line -> Scan.matches line json_key))
        files
  in
  if bad <> [] then begin
    prerr_endline
      "one_bench: read knobs and write JSON through bench/harness.ml \
       (Obs.Json), not by hand:";
    List.iter prerr_endline bad;
    exit 1
  end;
  Printf.printf "one_bench: %d source(s), one bench harness\n"
    (List.length files)
