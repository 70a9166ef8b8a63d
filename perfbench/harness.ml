(* Shared measurement machinery for the four workloads: statistics,
   per-operation latency samples and oracle failures, in-memory spans for
   the traced run, per-pass layer counters, and the per-layer report.

   Spans are recorded only by the benchmark's own code, around its calls
   into each library layer's public functions.  With tracing off [span]
   is a plain call, so the untraced passes that produce the end-to-end
   numbers pay nothing for it. *)

let now = Obs.Clock.now_ns

let secs a b = Int64.to_float (Int64.sub b a) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, secs t0 (now ()))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks, as numpy's default and
   Python's statistics.quantiles(method="inclusive") do. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Harness.quantile: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> invalid_arg "Harness.geomean: no samples"
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Operations and oracle failures                                      *)
(* ------------------------------------------------------------------ *)

(* Job latencies, tagged with the input they ran on. *)
let latencies_ms : (string * float) list ref = ref []
let attempted = ref 0
let failures : string list ref = ref []

(* Count one operation against the workload's oracle; a failed check is
   recorded with its reason and never raises, so the run can report how
   many operations failed before exiting non-zero. *)
let check ~input ok reason =
  incr attempted;
  if not ok then failures := Fmt.str "%s: %s" input reason :: !failures

let sample_ms ~input ms = latencies_ms := (input, ms) :: !latencies_ms

(* One latency per input: the median of its samples.  An input seen in
   every pass (a program, a preset) then counts once, so a percentile
   across inputs does not jump between the extremes of two inputs'
   sample clusters; served jobs have unique ids and count singly. *)
let job_latencies () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (input, ms) ->
      Hashtbl.replace tbl input
        (ms :: Option.value ~default:[] (Hashtbl.find_opt tbl input)))
    !latencies_ms;
  Hashtbl.fold (fun _ ms acc -> median ms :: acc) tbl []

(* Set once from the command line: the tdrepair executable serve-mix
   spawns, and a temporary directory inside the checkout for its socket. *)
let tdrepair = ref ""
let tmp_dir = ref ""

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int option;
  name : string;
  input : string;
  start_ns : int64;
  end_ns : int64;
}

let tracing = ref false

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

(* The input id new spans are tagged with (a program, preset or job). *)
let current_input = ref ""

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> Some p | [] -> None
let input_or i = if i = "" then !current_input else i

(* [span name f] runs [f]; when tracing, records a span around it. *)
let span ?(input = "") name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and parent = parent () and input = input_or input in
    let start_ns = now () in
    stack := id :: !stack;
    let close () =
      stack := List.tl !stack;
      spans := { id; parent; name; input; start_ns; end_ns = now () } :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Record a span measured elsewhere (an Obs.Trace event, a served job)
   as a child of the innermost open span. *)
let child ?(input = "") ~name ~start_ns ~end_ns () =
  if !tracing then
    spans :=
      { id = fresh_id (); parent = parent (); name; input = input_or input;
        start_ns; end_ns }
      :: !spans

(* [op ~input f] is one timed operation of a pass: returns [f]'s result
   and its duration in seconds, recorded as a job latency. *)
let op ~input f =
  current_input := input;
  let r, dt = time f in
  sample_ms ~input (1e3 *. dt);
  (r, dt)

(* ------------------------------------------------------------------ *)
(* Per-pass layer counters                                             *)
(* ------------------------------------------------------------------ *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let count_max name v =
  if !tracing then
    Hashtbl.replace counters name
      (Float.max v (Option.value ~default:0. (Hashtbl.find_opt counters name)))

(* Heap high-water mark (Mwords) of [f], kept as the pass maximum under
   [name]; only sampled when tracing, since the GC alarm costs time. *)
let heap_high name f =
  if not !tracing then f ()
  else begin
    let wm = Obs.Rusage.watermark () in
    Fun.protect
      ~finally:(fun () ->
        count_max name (float_of_int (Obs.Rusage.dispose wm) /. 1e6))
      f
  end

(* Layer of a span name: the part before the first '.'. *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Measure of the union of [(start, end)] intervals, in seconds. *)
let union_s ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (
        match cur with Some (a, b) -> acc +. secs a b | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
        | Some (ca, cb) -> go (acc +. secs ca cb) (Some (a, b)) rest)
  in
  go 0. None ivs

let children_of all =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          Hashtbl.replace tbl p
            (s :: Option.value ~default:[] (Hashtbl.find_opt tbl p))
      | None -> ())
    all;
  fun s -> Option.value ~default:[] (Hashtbl.find_opt tbl s.id)

(* Self time of a span: its duration minus the part its children cover. *)
let self_s kids s =
  secs s.start_ns s.end_ns
  -. union_s (List.map (fun c -> (c.start_ns, c.end_ns)) (kids s))

(* Metrics of one traced pass: for every span name N below a root, N_s
   is the summed inclusive duration; counters as recorded. *)
let pass_metrics spans =
  let m = Hashtbl.copy counters in
  List.iter
    (fun s ->
      if s.parent <> None then
        let k = s.name ^ "_s" in
        Hashtbl.replace m k
          (secs s.start_ns s.end_ns
          +. Option.value ~default:0. (Hashtbl.find_opt m k)))
    spans;
  m

(* ------------------------------------------------------------------ *)
(* Per-layer report                                                    *)
(* ------------------------------------------------------------------ *)

type layer_row = { layer : string; self_s : float; share : float }

(* Self time per layer over the traced passes' spans, as a share of the
   summed pass wall time; the roots' own self time is [unattributed]. *)
let layer_table all =
  let kids = children_of all in
  let wall =
    List.fold_left
      (fun acc s ->
        if s.parent = None then acc +. secs s.start_ns s.end_ns else acc)
      0. all
  in
  let tbl = Hashtbl.create 16 in
  let add l v =
    Hashtbl.replace tbl l
      (v +. Option.value ~default:0. (Hashtbl.find_opt tbl l))
  in
  List.iter
    (fun s ->
      add
        (if s.parent = None then "unattributed" else layer s.name)
        (self_s kids s))
    all;
  let rows =
    Hashtbl.fold
      (fun layer self_s acc ->
        { layer; self_s; share = (if wall > 0. then self_s /. wall else 0.) }
        :: acc)
      tbl []
  in
  let rank r = if r.layer = "unattributed" then infinity else -.r.self_s in
  (List.sort (fun a b -> Float.compare (rank a) (rank b)) rows, wall)

(* Concurrent spans (serve-mix's two connections) can sum past 100%. *)
let print_layer_table ~workload ~passes rows wall =
  Fmt.pr "per-layer self time, %s, %d traced pass(es), %.3f s wall:@."
    workload passes wall;
  Fmt.pr "  %-14s %12s %8s@." "layer" "self_s/pass" "share";
  List.iter
    (fun r ->
      Fmt.pr "  %-14s %12.6f %7.1f%%@." r.layer
        (r.self_s /. float_of_int (max 1 passes))
        (100. *. r.share))
    rows

module J = Obs.Json

let span_json ~workload ~t0 s =
  J.Obj
    [
      ("id", J.Int s.id);
      ("name", J.Str s.name);
      ("parent", match s.parent with Some p -> J.Int p | None -> J.Null);
      ("start_s", J.Float (secs t0 s.start_ns));
      ("end_s", J.Float (secs t0 s.end_ns));
      ("workload", J.Str workload);
      ("input", J.Str s.input);
    ]

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)
(* ------------------------------------------------------------------ *)

(* One set-up workload.  [pass ~full] runs every input once, timing each
   operation (with [op], or [sample_ms] for concurrent jobs) and checking
   it with [check]; [full] (the warm-up pass) adds the oracle checks that
   need extra executions.  It returns the pass time: the summed operation
   times, or the wall time when operations overlap.
   [probe] runs after each traced pass, outside its wall time, for
   baselines such as uninstrumented interpretation.  [values] are
   run-level numbers: the quality ratios and per-layer figures measured
   outside the passes.  [derived] are differences for the report only,
   [Error reason] when below their noise floor. *)
type instance = {
  pass : full:bool -> float;
  probe : unit -> unit;
  values : unit -> (string * float) list;
  derived : unit -> (string * (float, string) result) list;
  peak_rss_mb : unit -> float;
  teardown : unit -> unit;
}

let self_peak_rss_mb () = float_of_int (Obs.Rusage.peak_rss_kb ()) /. 1024.

(* Deterministic Fisher-Yates shuffle driven by the workload seed. *)
let shuffle ~seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let stat stats key =
  float_of_int (Option.value ~default:0 (List.assoc_opt key stats))

(* A detector run's counters (its [stats], "detector."-prefixed), kept
   under the detecting layer's name; shadow words as the pass maximum. *)
let detector_counters ~layer stats =
  List.iter
    (fun k -> count (layer ^ "." ^ k) (stat stats ("detector." ^ k)))
    (if layer = "espbags" then
       [ "accesses"; "uf_finds"; "scan_entries"; "gc_retired" ]
     else [ "accesses"; "clock_merges"; "clocks_freed" ]);
  count_max (layer ^ ".shadow_words") (stat stats "detector.shadow_words")
