(* One benchmark run of one workload, in its own process:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --tdrepair EXE --out DIR --tmp DIR

   Set-up is done three times and timed (setup_s is the median); the
   third set-up is kept.  A warm-up pass with the full oracle follows,
   then passes until S seconds have gone by.  With --trace 0 every pass
   is untraced and the run reports the end-to-end metrics; with
   --trace 1 untraced and traced passes alternate, and the run reports
   per-layer metrics, prints the per-layer table and writes its spans
   and report to DIR.  The last line of standard output is one JSON
   object of metric values; any oracle failure instead exits 1 without
   it. *)

module H = Harness
module J = Obs.Json

let workloads =
  [
    ("table1-repair", W_table1.setup);
    ("scale-detect", W_scale.setup);
    ("tournament", W_tournament.setup);
    ("serve-mix", W_serve.setup);
  ]

let setup_runs = 3
let min_passes = 3

(* Quality ratios are end-to-end metrics; the workload reports them among
   its run-level values, and 1.0 stands where it repairs nothing. *)
let quality = [ "cpl_ratio"; "retained_parallelism" ]

let fail fmt =
  Fmt.kstr
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let args () =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ -> fail "unexpected argument %S" bad
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let opt k =
    match List.assoc_opt k opts with Some v -> v | None -> fail "missing --%s" k
  in
  let int k =
    match int_of_string_opt (opt k) with
    | Some n -> n
    | None -> fail "--%s wants an integer" k
  in
  (opt, int)

type passes = {
  mutable untraced : float list;  (** pass times *)
  mutable traced : float list;
  mutable metrics : (string, float) Hashtbl.t list;  (** per traced pass *)
  mutable spans : H.span list;  (** of every traced pass, probes excluded *)
}

(* Every pass starts on a freshly collected heap (Gc.compact, outside the
   pass), so that no pass pays for the garbage of the one before. *)
let pass (inst : H.instance) ~full =
  Gc.compact ();
  inst.pass ~full

let traced_pass (inst : H.instance) ps =
  Hashtbl.reset H.counters;
  H.tracing := true;
  H.spans := [];
  Gc.compact ();
  let pass_s = H.span "pass" (fun () -> inst.pass ~full:false) in
  let pass_spans = !H.spans in
  H.spans := [];
  H.current_input := "";
  H.span "probe" inst.probe;
  let probe_spans = !H.spans in
  H.spans := [];
  H.tracing := false;
  ps.traced <- pass_s :: ps.traced;
  ps.spans <- pass_spans @ ps.spans;
  ps.metrics <- H.pass_metrics (pass_spans @ probe_spans) :: ps.metrics

let measure (inst : H.instance) ~seconds ~trace =
  let ps = { untraced = []; traced = []; metrics = []; spans = [] } in
  let t0 = H.now () in
  let n () = List.length ps.untraced + List.length ps.traced in
  while
    H.secs t0 (H.now ()) < seconds
    || n () < min_passes
    || (trace && ps.traced = [])
  do
    if trace && List.length ps.traced < List.length ps.untraced then
      traced_pass inst ps
    else ps.untraced <- pass inst ~full:false :: ps.untraced
  done;
  ps

let end_to_end ~name ~setup_s ~peak_rss_mb ~values ps =
  let jobs = List.length !H.latencies_ms in
  let lat = H.job_latencies () in
  Fmt.pr "%s: pass_s is the median of %d passes; %d jobs, %d job latencies@."
    name (List.length ps.untraced) jobs (List.length lat);
  [
    ("pass_s", H.median ps.untraced);
    ("setup_s", setup_s);
    ("peak_rss_mb", peak_rss_mb);
    ( "jobs_per_s",
      float_of_int jobs /. float_of_int (List.length ps.untraced)
      /. H.median ps.untraced );
    ("job_p50_ms", H.quantile lat 0.5);
    ("job_p90_ms", H.quantile lat 0.9);
  ]
  @ List.map
      (fun k -> (k, Option.value ~default:1.0 (List.assoc_opt k values)))
      quality

(* A difference is reported only when it exceeds the spread (max - min)
   of its baseline's samples; otherwise it is null with the reason. *)
let difference name ~minuend ~baseline =
  match (minuend, baseline) with
  | [], _ | _, [] -> (name, Error "not measured on this workload")
  | _, [ _ ] -> (name, Error "one baseline sample: no spread to exceed")
  | m, b ->
      let d = H.median m -. H.median b in
      let spread =
        List.fold_left Float.max neg_infinity b
        -. List.fold_left Float.min infinity b
      in
      if d > spread then (name, Ok d)
      else
        ( name,
          Error
            (Fmt.str "%.6f s is within the %.6f s spread of its baseline" d
               spread) )

(* Rates measured in the traced passes: numerator and denominator come
   from the same pass, and a pass without the denominator is skipped. *)
let rates =
  [
    ("rt.work_units_per_s", "rt.work_units", "rt.run_s");
    ("espbags.accesses_per_s", "espbags.accesses", "espbags.detect_s");
    ("vclock.accesses_per_s", "vclock.accesses", "vclock.detect_s");
    ("strategy.verified_ratio", "strategy.verified", "strategy.attempted");
  ]

let per_layer ~name ~seed ~out ~values ~derived ps =
  let per_pass k =
    List.filter_map (fun m -> Hashtbl.find_opt m k) ps.metrics
  in
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun m -> Hashtbl.fold (fun k _ acc -> k :: acc) m [])
         ps.metrics)
  in
  let rates =
    List.filter_map
      (fun (rate, num, den) ->
        match
          List.filter_map
            (fun m ->
              match (Hashtbl.find_opt m num, Hashtbl.find_opt m den) with
              | Some n, Some d when d > 0. -> Some (n /. d)
              | _ -> None)
            ps.metrics
        with
        | [] -> None
        | rs -> Some (rate, H.median rs))
      rates
  in
  let rows, wall = H.layer_table ps.spans in
  H.print_layer_table ~workload:name ~passes:(List.length ps.traced) rows wall;
  let unattributed =
    List.fold_left
      (fun acc (r : H.layer_row) ->
        if r.layer = "unattributed" then acc +. r.self_s else acc)
      0. rows
  in
  let derived =
    [
      difference "espbags.detect_minus_rt_s"
        ~minuend:(per_pass "espbags.detect_s") ~baseline:(per_pass "rt.run_s");
      difference "vclock.detect_minus_rt_s"
        ~minuend:(per_pass "vclock.detect_s") ~baseline:(per_pass "rt.run_s");
      difference "trace.overhead_s" ~minuend:ps.traced ~baseline:ps.untraced;
    ]
    @ derived
  in
  List.iter
    (fun (k, v) ->
      match v with
      | Ok d -> Fmt.pr "  %-26s %.6f@." k d
      | Error why -> Fmt.pr "  %-26s null (%s)@." k why)
    derived;
  let metrics =
    List.map (fun k -> (k, H.median (per_pass k))) keys
    @ rates
    @ List.filter (fun (k, _) -> not (List.mem k quality)) values
    @ [
        ("trace.pass_s", H.median ps.traced);
        ("trace.untraced_pass_s", H.median ps.untraced);
        ("trace.attributed_share", 1. -. (unattributed /. wall));
      ]
  in
  let t0 =
    List.fold_left (fun acc s -> min acc s.H.start_ns) Int64.max_int ps.spans
  in
  let layer (r : H.layer_row) =
    J.Obj
      [
        ("layer", J.Str r.layer);
        ("self_s", J.Float r.self_s);
        ("share_of_pass_wall", J.Float r.share);
      ]
  in
  let derived_json = function
    | Ok d -> J.Obj [ ("value", J.Float d) ]
    | Error why -> J.Obj [ ("value", J.Null); ("reason", J.Str why) ]
  in
  let path = Filename.concat out (Fmt.str "trace-%s-seed%d.json" name seed) in
  J.save path
    (J.Obj
       [
         ("workload", J.Str name);
         ("seed", J.Int seed);
         ("traced_passes", J.Int (List.length ps.traced));
         ("untraced_passes", J.Int (List.length ps.untraced));
         ("layers", J.List (List.map layer rows));
         ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
         ("derived", J.Obj (List.map (fun (k, v) -> (k, derived_json v)) derived));
         ( "spans",
           J.List (List.rev_map (H.span_json ~workload:name ~t0) ps.spans) );
       ]);
  Fmt.pr "trace report written to %s@." path;
  metrics

let () =
  let opt, int = args () in
  let name = opt "workload" in
  let setup =
    match List.assoc_opt name workloads with
    | Some s -> s
    | None -> fail "unknown workload %S" name
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = int "trace" = 1 in
  H.tdrepair := opt "tdrepair";
  H.tmp_dir := opt "tmp";
  let rec setups k times =
    Gc.compact ();
    let inst, dt = H.time (fun () -> setup ~seed) in
    if k = setup_runs then (inst, H.median (dt :: times))
    else begin
      inst.H.teardown ();
      setups (k + 1) (dt :: times)
    end
  in
  let inst, setup_s = setups 1 [] in
  ignore (pass inst ~full:true);
  H.latencies_ms := [];
  let ps = measure inst ~seconds ~trace in
  inst.teardown ();
  let failed = List.length !H.failures in
  if failed > 0 then begin
    List.iter
      (fun f -> prerr_endline ("perfbench: oracle failure: " ^ f))
      (List.rev !H.failures);
    Fmt.epr "perfbench: %s: %d of %d operations failed their oracle@." name
      failed !H.attempted;
    exit 1
  end;
  let values = inst.values () in
  let metrics =
    if trace then
      per_layer ~name ~seed ~out:(opt "out") ~values ~derived:(inst.derived ()) ps
    else end_to_end ~name ~setup_s ~peak_rss_mb:(inst.peak_rss_mb ()) ~values ps
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("attempted", J.Int !H.attempted);
            ("failed", J.Int failed);
            ("values", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
          ]))
