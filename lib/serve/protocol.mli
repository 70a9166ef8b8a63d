(** The [tdrepair serve] wire protocol: newline-delimited JSON frames
    over a Unix-domain socket.

    Every frame is one line.  Requests are objects with an ["op"] field;
    job requests (["detect"]/["repair"]/["lint"]) carry a client-chosen
    ["id"] echoed on the reply, the program ["src"], and an optional
    ["flags"] object.  Replies are objects with sorted keys ({!Obs.Json}
    emission), so byte-identical replies are meaningful — the result
    cache relies on this.

    Protocol errors are typed ({!proto_error}): a malformed frame gets
    an error reply and the connection survives; an oversized frame gets
    an error reply and the connection is closed (the read limit bounds
    per-connection buffering, see DESIGN.md §12). *)

type op = Detect | Repair | Lint

val op_to_string : op -> string

(** A job's ["flags"] object: the job options ({!Repair.Options}, decoded
    by {!Repair.Options.of_json}, so a flag is the CLI flag with [-]
    turned into [_]) plus four keys of the job itself. *)
type flags = {
  options : Repair.Options.t;
  timeout_ms : int option;  (** per-job watchdog; [None] = daemon default *)
  retries : int option;  (** transient-fault retries; [None] = default *)
  faults : Repair.Faultinject.fault list;
      (** per-job injected faults (applied to the first attempt only);
          jobs with faults are never cached *)
  trace : bool;  (** return the job's {!Obs.Trace} span names *)
}

val default_flags : flags

(** The ranges of ["timeout_ms"] and ["retries"], shared with their CLI
    flags ([--timeout-ms], [serve --retries]). *)
val timeout_ms_range : Repair.Options.range
val retries_range : Repair.Options.range

type job_spec = { id : string; op : op; src : string; flags : flags }

type request =
  | Job of job_spec
  | Health
  | Cancel of string
  | Shutdown

type proto_error =
  | Malformed of string  (** unparseable or non-object frame *)
  | Oversized of int  (** frame exceeded the read limit (the payload) *)
  | Bad_request of string  (** well-formed JSON, invalid request *)

(** Parse one frame (without its newline).  Flags get the value checks
    the CLI applies: an unknown key or an ill-typed or out-of-range value
    is a [Bad_request] naming the key. *)
val parse : string -> (request, proto_error) result

(** The option combinations {!Repair.Options.validate} rejects for the
    job's op, as a [Bad_request]; the daemon checks every job before it
    admits it, as the CLI does before it runs one. *)
val validate : job_spec -> (unit, proto_error) result

(** Round-trippable compact fault specs ("interp_trap:50",
    "worker_crash", ...) used in the ["flags.faults"] list. *)
val fault_to_string : Repair.Faultinject.fault -> string

(** Job terminal statuses.  Exactly one terminal reply is sent per
    admitted job. *)
type status = Sok | Sdegraded | Sfailed | Soverloaded | Scancelled

val status_to_string : status -> string

val job_reply :
  id:string ->
  status:status ->
  ?attempts:int ->
  ?cached:bool ->
  ?report:Obs.Json.t ->
  ?error:string ->
  ?spans:string list ->
  unit ->
  Obs.Json.t

(** The error frame for a protocol error (["error"] key instead of
    ["status"]). *)
val error_reply : proto_error -> Obs.Json.t

(** Serialize one reply frame, newline included. *)
val frame : Obs.Json.t -> string

(** Deterministic cache-key material for a job: the digest of its op,
    {!Repair.Options.key} (every semantic job option, by construction of
    the codec table) and its source.  [trace], [timeout_ms] and
    [retries] do not change the answer and are left out.  Jobs with
    faults must not be cached at all. *)
val cache_key : job_spec -> string
