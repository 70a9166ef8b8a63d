(* @ci check for the observability files: run `tdrepair repair -q
   --trace --metrics` on two samples and validate the emitted JSON —
   parseable by Obs.Json, sorted keys, monotone timestamps, one span per
   pipeline stage, and the full metrics key schema.  Exits non-zero on
   the first violation.

   This duplicates the schema assertions of test_cli's
   "repair --trace/--metrics" case on purpose: the alcotest run covers
   one sample under `dune runtest`, while this orchestrator sweeps the
   multi-iteration sample too and keeps the check in the @ci alias even
   if the CLI suite is filtered. *)

let here = Filename.dirname Sys.executable_name

let binary = Filename.concat here "../../bin/tdrepair.exe"

let sample name = Filename.concat here ("../../samples/" ^ name)

let fail fmt = Fmt.kstr (fun s -> prerr_endline ("obs-ci: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec keys_sorted = function
  | Obs.Json.Obj kvs ->
      let ks = List.map fst kvs in
      ks = List.sort compare ks && List.for_all keys_sorted (List.map snd kvs)
  | Obs.Json.List js -> List.for_all keys_sorted js
  | _ -> true

let stages =
  [
    "parse"; "typecheck"; "normalize"; "iteration"; "detect"; "sdpst-build";
    "scopecheck"; "nslca-group"; "depgraph"; "dp-place"; "rewrite";
  ]

(* Every metrics dump must carry the full declared schema, including the
   keys of subsystems that did not run. *)
let schema_keys =
  [
    "detector.accesses"; "detector.locations"; "detector.races";
    "detector.scan_entries"; "detector.skipped"; "detector.uf_finds";
    "detector.uf_unions"; "driver.degradations"; "driver.finishes_inserted";
    "driver.groups"; "driver.iterations"; "driver.lifted_pairs";
    "driver.race_pairs"; "driver.races"; "engine.deque_grows";
    "engine.fuel_batches"; "engine.inlined"; "engine.pooled"; "engine.runs";
    "engine.steals"; "engine.tasks"; "engine.yields"; "prune.conflicts";
    "prune.discharged"; "prune.kept"; "prune.stmts";
  ]

let check_trace name path =
  let j =
    try Obs.Json.of_string (read_file path)
    with Obs.Json.Parse_error e -> fail "%s: trace unparseable: %s" name e
  in
  if not (keys_sorted j) then fail "%s: trace keys not sorted" name;
  (match Obs.Json.member "displayTimeUnit" j with
  | Some (Obs.Json.Str "ms") -> ()
  | _ -> fail "%s: displayTimeUnit missing" name);
  let events =
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.List evs) -> evs
    | _ -> fail "%s: traceEvents missing" name
  in
  let ts ev =
    match Obs.Json.member "ts" ev with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> fail "%s: event missing ts" name
  in
  let rec monotone = function
    | a :: b :: tl ->
        if ts a > ts b then fail "%s: timestamps not monotone" name;
        monotone (b :: tl)
    | _ -> ()
  in
  monotone events;
  let names =
    List.map
      (fun ev ->
        match Obs.Json.member "name" ev with
        | Some (Obs.Json.Str s) -> s
        | _ -> fail "%s: event missing name" name)
      events
  in
  List.iter
    (fun st ->
      if not (List.mem st names) then
        fail "%s: missing pipeline stage span %S" name st)
    stages;
  List.length events

let check_metrics name path =
  let j =
    try Obs.Json.of_string (read_file path)
    with Obs.Json.Parse_error e -> fail "%s: metrics unparseable: %s" name e
  in
  if not (keys_sorted j) then fail "%s: metrics keys not sorted" name;
  (match j with
  | Obs.Json.Obj kvs ->
      List.iter
        (function
          | _, Obs.Json.Int _ -> ()
          | k, _ -> fail "%s: metrics value %s is not an int" name k)
        kvs
  | _ -> fail "%s: metrics file is not an object" name);
  let get k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Int i) -> i
    | _ -> fail "%s: metrics missing schema key %s" name k
  in
  List.iter (fun k -> ignore (get k)) schema_keys;
  if get "detector.accesses" <= 0 then
    fail "%s: detector.accesses not populated" name;
  if get "driver.iterations" <= 0 then
    fail "%s: driver.iterations not populated" name

let check_sample ?(extra_args = []) name =
  let trace = Filename.temp_file "obs_ci" ".trace.json" in
  let metrics = Filename.temp_file "obs_ci" ".metrics.json" in
  let cmd =
    Fmt.str "%s repair %s -q --trace %s --metrics %s %s"
      (Filename.quote binary)
      (Filename.quote (sample name))
      (Filename.quote trace) (Filename.quote metrics)
      (String.concat " " (List.map Filename.quote extra_args))
  in
  let code = Sys.command cmd in
  if code <> 0 then fail "%s: repair exited %d" name code;
  let n = check_trace name trace in
  check_metrics name metrics;
  Sys.remove trace;
  Sys.remove metrics;
  Fmt.pr "obs-ci: %-16s OK (%d spans, %d schema keys)@." name n
    (List.length schema_keys)

let () =
  check_sample "figure5.mhj";
  (* --static-prune so the prune.* gauges are exercised too *)
  check_sample "fib_buggy.mhj" ~extra_args:[ "--static-prune" ];
  Fmt.pr "obs-ci: all observability checks passed@."
