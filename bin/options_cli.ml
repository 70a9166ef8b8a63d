(* The command line of tdrepair as data: every named flag of every
   subcommand is one row of this table -- the job options of
   Repair.Options included -- and one generic converter, [arg], turns a
   row into its cmdliner term.  A flag's names, help, default, range and
   commands all come from its row; bin/tdrepair.ml keeps only positional
   arguments and command bodies. *)

open Cmdliner
module O = Repair.Options

let input_error fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "error: %s@." m;
      exit Repair.Exit_code.input_error)
    fmt

type _ kind =
  | Flag : bool kind
  | Enum : (string * 'a) list -> 'a kind
  | Int : O.range -> int kind  (** an integer in range, [default] if absent *)
  | Int_opt : O.range -> int option kind  (** an optional integer in range *)
  | Text : string kind
  | Path : string option kind  (** an optional file path *)
  | File : string kind  (** a required existing file; [default] unused *)
  | Sets : (string * int) list kind  (** repeatable [NAME=INT] overrides *)

type 'a row = {
  names : string list;  (** one-letter names are short flags *)
  docv : string;  (** the metavariable; unused by [Flag] rows *)
  doc : string;  (** help, in cmdliner markup *)
  kind : 'a kind;
  default : 'a;
  vopt : 'a option;  (** the value of the bare flag, if it may go bare *)
  commands : string list;  (** the subcommands that take the flag *)
}

type any = Any : 'a row -> any

let int_conv range =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Fmt.str "%S is not an integer" s))
    | Some n -> (
        match O.out_of_range range n with
        | None -> Ok n
        | Some why -> Error (`Msg why))
  in
  Arg.conv (parse, Fmt.int)

(* The one converter: a row's flag, absent meaning [default].
   Out-of-range values are usage errors (exit 124); a malformed NAME=INT
   is an input error (exit 3), like an override naming no int global. *)
let arg (type a) (r : a row) : a Term.t =
  let flag_info = Arg.info r.names ~docv:r.docv ~doc:r.doc in
  let opt c = Arg.(value & opt ?vopt:r.vopt c r.default flag_info) in
  match r.kind with
  | Flag -> Arg.(value & flag flag_info)
  | Enum names -> opt (Arg.enum names)
  | Int range -> opt (int_conv range)
  | Int_opt range -> opt (Arg.some (int_conv range))
  | Text -> opt Arg.string
  | Path -> opt Arg.(some string)
  | File -> Arg.(required & opt (some non_dir_file) None flag_info)
  | Sets ->
      let parse spec =
        let bad m = input_error "--%s %s: %s" (List.hd r.names) spec m in
        match String.index_opt spec '=' with
        | None -> bad "expects NAME=INT"
        | Some i -> (
            let v = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt v with
            | Some n -> (String.sub spec 0 i, n)
            | None -> bad (Fmt.str "%S is not an integer" v))
      in
      let spell (k, n) = Fmt.str "%s=%d" k n in
      Term.(
        const (List.map parse)
        $ Arg.(value & opt_all string (List.map spell r.default) flag_info))

(* The subcommands a job row is a flag of: detect and explain take the
   Detect rows and repair the Repair rows; run and coverage apply --set,
   and call forwards --set and --strategy to the daemon. *)
let job_commands (r : _ O.row) =
  List.concat_map
    (function O.Detect -> [ "detect"; "explain" ] | O.Repair -> [ "repair" ])
    r.commands
  @
  if r.key = O.Row.sets.key then [ "run"; "coverage"; "call" ]
  else if r.key = O.Row.strategy.key then [ "call" ]
  else []

let of_job (type a) (r : a O.row) (default : a) : a row =
  let kind : a kind =
    match r.kind with
    | O.Flag -> Flag
    | O.Enum names -> Enum names
    | O.Int range -> Int_opt range
    | O.Path -> Path
    | O.Sets -> Sets
  in
  { names = [ O.flag_name r ]; docv = r.docv; doc = r.doc; kind; default;
    vopt = None; commands = job_commands r }

(* Every job row [cmd] takes, folded into one record that
   Repair.Options.validate accepts (or exit 3). *)
let term cmd =
  let add acc (O.Field (r, default)) =
    if List.mem cmd r.commands then
      Term.(const r.set $ arg (of_job r default) $ acc)
    else acc
  in
  let check o =
    match O.validate cmd o with Ok () -> o | Error m -> input_error "%s" m
  in
  Term.(
    const check
    $ List.fold_left add (const O.default) (O.fields O.default))

(* The rows beyond the job options, in declaration order. *)
let table = ref []

let row ?(docv = "") ?vopt names commands kind default doc =
  let r = { names; docv; doc; kind; default; vopt; commands } in
  table := Any r :: !table;
  r

let flag names commands doc = row names commands Flag false doc
let range ?(noun = "") ?(hi = max_int) lo = { O.lo; hi; noun }

module Row = struct
  let sets = of_job O.Row.sets O.default.sets
  let strategy = of_job O.Row.strategy O.default.strategy

  let output =
    row [ "o"; "output" ] ~docv:"OUT"
      [ "analyze"; "repair"; "strip"; "elide"; "emit" ]
      Path None "Write the result to $(docv)."

  let quiet =
    flag [ "q"; "quiet" ] [ "analyze"; "repair" ]
      "Do not print the repaired program."

  let timeout_ms =
    row [ "timeout-ms" ] ~docv:"MS"
      [ "detect"; "repair"; "serve"; "call" ]
      (Int_opt Serve.Protocol.timeout_ms_range) None
      "Wall-clock watchdog for the whole job: abort once $(docv) \
       milliseconds have elapsed (exit code 4).  The same cooperative \
       watchdog guards every job in $(b,tdrepair serve)."

  let socket =
    row [ "socket" ] ~docv:"PATH" [ "serve"; "call" ] Text
      "/tmp/tdrepair.sock" "Unix-domain socket path the daemon listens on."

  (* run *)

  let procs =
    row [ "p"; "procs" ] ~docv:"P" [ "run" ] (Int (range 1)) 12
      "Processors for the scheduling simulation."

  (* A bare --par reads 0: the recommended domain count. *)
  let par =
    let hi = Par.Engine.max_domains in
    row [ "par" ] ~docv:"N" ~vopt:(Some 0) [ "run" ]
      (Int_opt (range 1 ~hi ~noun:"domain count")) None
      (Fmt.str
         "Execute on the parallel backend with $(docv) OCaml domains (1 \
          to %d) instead of depth-first.  $(b,--par=1) is the \
          deterministic schedule-fuzzing mode (replayable from \
          $(b,--seed)); $(b,--par) alone uses the recommended domain \
          count."
         hi)

  let seed =
    row [ "seed" ] ~docv:"S" [ "run" ] (Int (range min_int)) 1
      "Schedule seed: with $(b,--par=1) the same seed replays the same \
       schedule exactly; with more domains it drives victim selection \
       (best-effort)."

  let pace =
    row [ "pace" ] ~docv:"NS" [ "run" ] (Int (range 0)) 0
      "Pace parallel execution: each cost unit also costs $(docv) \
       nanoseconds of sleep (0 or more), so wall-clock time reflects \
       schedule overlap (used by $(b,bench speedup))."

  (* detect and analyze *)

  let race_trace =
    row [ "race-trace" ] ~docv:"OUT" [ "detect" ] Path None
      "Write a race trace file to $(docv)."

  let dump_sdpst = flag [ "dump-sdpst" ] [ "detect" ] "Print the S-DPST."

  let dump_tree =
    row [ "dump-tree" ] ~docv:"OUT" [ "detect" ] Path None
      "Serialize the S-DPST to $(docv), for offline analysis with \
       $(b,analyze)."

  let tree =
    row [ "tree" ] ~docv:"FILE" [ "analyze" ] File ""
      "S-DPST dump produced by $(b,detect --dump-tree)."

  let race_trace_in =
    row [ "race-trace" ] ~docv:"FILE" [ "analyze" ] File ""
      "Race trace produced by $(b,detect --race-trace)."

  (* repair *)

  let report =
    flag [ "report" ] [ "repair" ]
      "Print the detailed per-iteration repair report."

  let validate_par =
    row [ "validate-par" ] ~docv:"K" ~vopt:(Some 10) [ "repair" ]
      (Int_opt (range 0)) None
      "After convergence, re-run the repaired program under $(docv) \
       deterministic fuzzed parallel schedules (default 10) and require \
       each to reproduce the sequential semantics.  A divergence exits \
       2; schedules skipped under $(b,--budget-validate) exit 4."

  let validate_seed =
    row [ "validate-seed" ] ~docv:"S" [ "repair" ] (Int (range min_int)) 1
      "Base schedule seed for $(b,--validate-par); schedule $(i,k) uses \
       seed S+$(i,k), replayable with $(b,run --par=1 --seed)."

  let budget_validate =
    row [ "budget-validate" ] ~docv:"MS" [ "repair" ]
      (Int_opt (range 0)) None
      "Wall-clock budget for $(b,--validate-par) in milliseconds; \
       remaining schedules are skipped once it is exceeded (exit code \
       4)."

  let chrome_trace =
    row [ "trace" ] ~docv:"FILE" [ "repair" ] Path None
      "Write a Chrome-trace-format JSON timeline of the pipeline to \
       $(docv): one span per stage (parse, detect, placement, rewrite, \
       ...) per repair iteration.  Open it with chrome://tracing or \
       ui.perfetto.dev."

  let metrics =
    row [ "metrics" ] ~docv:"FILE" [ "repair" ] Path None
      "Write the run's counters (detector, static pruner, parallel \
       engine, driver) to $(docv) as one JSON object with sorted keys."

  (* grade, emit and lint *)

  let verbose = flag [ "v"; "verbose" ] [ "grade" ] "Per-submission detail."

  let size : [ `Repair | `Perf | `Stripped ] row =
    row [ "size" ] ~docv:"WHICH" [ "emit" ]
      (Enum [ ("repair", `Repair); ("perf", `Perf); ("stripped", `Stripped) ])
      `Repair
      "Which variant to emit: $(b,repair) input size, $(b,perf) input \
       size, or the finish-$(b,stripped) repair-size program."

  let exit_zero =
    flag [ "exit-zero" ] [ "lint" ]
      "Exit 0 even when findings are reported (CI mode: only crashes and \
       invalid input fail)."

  let suite =
    flag [ "suite" ] [ "lint" ]
      "Also lint every built-in benchmark program (in-process)."

  let explain =
    flag [ "explain" ] [ "lint" ]
      "Annotate each static-race finding with the reason the affine index \
       refinement could not discharge the pair (non-affine subscript, \
       non-constant loop bounds, global collision, or a genuine possible \
       overlap)."

  (* serve: each worker is a domain of its own, beside the daemon's *)

  let workers =
    let hi = Par.Engine.max_domains - 1 in
    row [ "workers" ] ~docv:"N" [ "serve" ] (Int (range 1 ~hi)) 2
      (Fmt.str "Worker domains executing jobs in parallel (at most %d)." hi)

  let queue =
    row [ "queue" ] ~docv:"N" [ "serve" ] (Int (range 0)) 16
      "Bounded job-queue capacity.  A job arriving at a full queue is \
       refused with an $(b,overloaded) reply (load shedding), never \
       buffered without bound."

  let max_frame =
    row [ "max-frame" ] ~docv:"BYTES" [ "serve" ] (Int (range 1))
      (1 lsl 20)
      "Per-connection frame limit (at least 1): a request line longer \
       than $(docv) bytes gets an $(b,oversized-frame) error and the \
       connection is closed."

  let cache =
    row [ "cache" ] ~docv:"N" [ "serve" ] (Int (range 0)) 64
      "Result-cache capacity (identical program + flags returns the \
       cached report byte-for-byte).  0 disables caching."

  let retries =
    row [ "retries" ] ~docv:"N" [ "serve" ]
      (Int Serve.Protocol.retries_range) 2
      "Transient-fault retries per job (injected faults, budget \
       exhaustion) before the job is declared $(b,failed)."

  let backoff_ms =
    row [ "backoff-ms" ] ~docv:"MS" [ "serve" ] (Int (range 0)) 10
      "First retry delay; doubles per retry, capped."

  let hard_watchdog_ms =
    row [ "hard-watchdog-ms" ] ~docv:"MS" [ "serve" ] (Int (range 1))
      5000
      "Hard watchdog (at least 1): a worker busy on one job beyond \
       $(docv) is declared wedged — the job is answered $(b,degraded), \
       the domain abandoned, and a replacement worker spawned."

  let serve_verbose = flag [ "verbose" ] [ "serve" ] "Log lifecycle events."

  (* call *)

  let health =
    flag [ "health" ] [ "call" ] "Request the daemon's health report."

  let shutdown = flag [ "shutdown" ] [ "call" ] "Ask the daemon to drain."

  let op =
    row [ "op" ] ~docv:"OP" [ "call" ]
      (Enum [ ("detect", "detect"); ("repair", "repair"); ("lint", "lint") ])
      "repair" "Job kind to submit."

  let id =
    row [ "id" ] ~docv:"ID" [ "call" ] Text "cli"
      "Client job id echoed on the reply."

  let span_names =
    flag [ "spans" ] [ "call" ]
      "Ask for the job's pipeline span names in the reply."
end

(* Every row of every subcommand. *)
let rows =
  List.map (fun (O.Field (r, d)) -> Any (of_job r d)) (O.fields O.default)
  @ List.rev !table
