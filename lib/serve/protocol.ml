(* See protocol.mli. *)

module J = Obs.Json
module FI = Repair.Faultinject

type op = Detect | Repair | Lint

let op_to_string = function
  | Detect -> "detect"
  | Repair -> "repair"
  | Lint -> "lint"

type flags = {
  options : Repair.Options.t;
  timeout_ms : int option;
  retries : int option;
  faults : FI.fault list;
  trace : bool;
}

let default_flags =
  {
    options = Repair.Options.default;
    timeout_ms = None;
    retries = None;
    faults = [];
    trace = false;
  }

type job_spec = { id : string; op : op; src : string; flags : flags }

type request =
  | Job of job_spec
  | Health
  | Cancel of string
  | Shutdown

type proto_error =
  | Malformed of string
  | Oversized of int
  | Bad_request of string

exception Bad of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let as_string what = function
  | J.Str s -> s
  | _ -> bad "%s must be a string" what

(* A job key's integer, in the range its CLI flag declares. *)
let as_int key range = function
  | J.Int n ->
      Option.iter (bad "flags.%s: %s" key)
        (Repair.Options.out_of_range range n);
      n
  | _ -> bad "%s must be an integer" key

let as_bool what = function
  | J.Bool b -> b
  | _ -> bad "%s must be a boolean" what

(* Fault specs are compact strings: "worker_crash", "interp_trap:50",
   "slow_stage:100", "detector_abort", "dp_timeout", "place_unsat",
   "insert_fail". *)
let fault_of_string s =
  let name, arg =
    match String.index_opt s ':' with
    | Some i ->
        ( String.sub s 0 i,
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, None)
  in
  match (name, arg) with
  | "interp_trap", Some k -> FI.Interp_trap k
  | "slow_stage", Some ms -> FI.Slow_stage ms
  | "detector_abort", None -> FI.Detector_abort
  | "dp_timeout", None -> FI.Dp_timeout
  | "place_unsat", None -> FI.Place_unsat
  | "insert_fail", None -> FI.Insert_fail
  | "worker_crash", None -> FI.Worker_crash
  | _ -> bad "unknown fault spec %S" s

let fault_to_string = function
  | FI.Interp_trap k -> Printf.sprintf "interp_trap:%d" k
  | FI.Slow_stage ms -> Printf.sprintf "slow_stage:%d" ms
  | FI.Detector_abort -> "detector_abort"
  | FI.Dp_timeout -> "dp_timeout"
  | FI.Place_unsat -> "place_unsat"
  | FI.Insert_fail -> "insert_fail"
  | FI.Worker_crash -> "worker_crash"

let timeout_ms_range = { Repair.Options.lo = 0; hi = max_int; noun = "" }
let retries_range = { Repair.Options.lo = 0; hi = max_int; noun = "" }

(* The job-level keys; every other key of "flags" is a job option. *)
let job_keys = [ "timeout_ms"; "retries"; "faults"; "trace" ]

let parse_flags kvs =
  let own, rest = List.partition (fun (k, _) -> List.mem k job_keys) kvs in
  let get k = List.assoc_opt k own in
  let int k range = Option.map (as_int k range) (get k) in
  let options =
    match Repair.Options.of_json (J.Obj rest) with
    | Ok o -> o
    | Error m -> bad "%s" m
  in
  {
    options;
    timeout_ms = int "timeout_ms" timeout_ms_range;
    retries = int "retries" retries_range;
    faults =
      (match get "faults" with
      | None -> []
      | Some (J.List fs) ->
          List.map (fun f -> fault_of_string (as_string "fault" f)) fs
      | Some _ -> bad "flags.faults must be a list of fault specs");
    trace = Option.fold ~none:false ~some:(as_bool "trace") (get "trace");
  }

let parse_obj j =
  let member k = J.member k j in
  let require k =
    match member k with Some v -> v | None -> bad "missing %S field" k
  in
  let id_of v =
    match v with
    | J.Str s -> s
    | J.Int n -> string_of_int n
    | _ -> bad "\"id\" must be a string or integer"
  in
  match require "op" with
  | J.Str "health" -> Health
  | J.Str "shutdown" -> Shutdown
  | J.Str "cancel" -> Cancel (id_of (require "id"))
  | J.Str ("detect" | "repair" | "lint" as opname) ->
      let op =
        match opname with
        | "detect" -> Detect
        | "repair" -> Repair
        | _ -> Lint
      in
      let id = id_of (require "id") in
      let src = as_string "src" (require "src") in
      let flags =
        match member "flags" with
        | None -> default_flags
        | Some (J.Obj kvs) -> parse_flags kvs
        | Some _ -> bad "\"flags\" must be an object"
      in
      Job { id; op; src; flags }
  | J.Str other -> bad "unknown op %S" other
  | _ -> bad "\"op\" must be a string"

let parse line =
  match J.of_string line with
  | exception J.Parse_error m -> Error (Malformed m)
  | J.Obj _ as j -> (
      try Ok (parse_obj j) with Bad m -> Error (Bad_request m))
  | _ -> Error (Malformed "frame is not a JSON object")

let validate (spec : job_spec) =
  let command =
    match spec.op with
    | Repair -> Repair.Options.Repair
    | Detect | Lint -> Repair.Options.Detect
  in
  Result.map_error
    (fun m -> Bad_request m)
    (Repair.Options.validate command spec.flags.options)

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type status = Sok | Sdegraded | Sfailed | Soverloaded | Scancelled

let status_to_string = function
  | Sok -> "ok"
  | Sdegraded -> "degraded"
  | Sfailed -> "failed"
  | Soverloaded -> "overloaded"
  | Scancelled -> "cancelled"

let job_reply ~id ~status ?attempts ?cached ?report ?error ?spans () =
  let base =
    [ ("id", J.Str id); ("status", J.Str (status_to_string status)) ]
  in
  let opt k v f = match v with None -> [] | Some x -> [ (k, f x) ] in
  J.Obj
    (base
    @ opt "attempts" attempts (fun n -> J.Int n)
    @ opt "cached" cached (fun b -> J.Bool b)
    @ opt "report" report Fun.id
    @ opt "error" error (fun e -> J.Str e)
    @ opt "spans" spans (fun ss -> J.List (List.map (fun s -> J.Str s) ss)))

let error_reply = function
  | Malformed m ->
      J.Obj [ ("error", J.Str "malformed-frame"); ("detail", J.Str m) ]
  | Oversized limit ->
      J.Obj [ ("error", J.Str "oversized-frame"); ("limit", J.Int limit) ]
  | Bad_request m ->
      J.Obj [ ("error", J.Str "bad-request"); ("detail", J.Str m) ]

let frame j = J.to_string j ^ "\n"

(* ------------------------------------------------------------------ *)
(* Cache keying                                                        *)
(* ------------------------------------------------------------------ *)

(* Every job option that can change the result is in Options.key, by
   construction of its codec table; trace, timeout and retries are not
   options. *)
let cache_key (spec : job_spec) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            op_to_string spec.op;
            Repair.Options.key spec.flags.options;
            spec.src;
          ]))
