(** Cooperative per-job wall-clock watchdog.

    The deadline is {e domain-local}: each daemon worker domain (and the
    one-shot CLI) arms its own deadline around one job.  The evaluators
    read the arming domain's {!state} once per run ({!current}) and
    {!poll} it from their fuel slow paths — every ~1k cost units in
    {!Interp}, every fuel batch in [Par.Engine], whose Domains workers
    poll the state captured on the domain that started the run — so any
    execution-bound stage observes expiry promptly.  Expiry raises {!Timeout},
    which the pipeline maps to a [budget]-stage diagnostic (exit code 4)
    — the same degradation semantics for [--timeout-ms] on the one-shot
    commands and for the daemon's per-job watchdog.

    Cooperative means a stage that never ticks cannot be interrupted;
    the daemon supervisor backs this up with a hard watchdog that
    declares such a worker wedged and respawns it (see
    {!Serve.Supervisor}). *)

exception Timeout of int
(** Raised (once per arming) when the deadline passes; the payload is
    the originally requested timeout in milliseconds. *)

(** A domain's watchdog state. *)
type state

(** The calling domain's watchdog state (armed or not).  The record is
    live: a later {!arm} or {!disarm} on that domain is seen by {!poll}. *)
val current : unit -> state

(** Read the clock and raise {!Timeout} if [state]'s armed deadline has
    passed.  One load when disarmed.  May be called from any domain. *)
val poll : state -> unit

(** [poll (current ())]. *)
val check : unit -> unit

(** [with_timeout ~ms f] runs [f] under an [ms]-millisecond deadline
    (disarming on exit, also on exceptions); [ms = None] runs [f]
    unguarded. *)
val with_timeout : ms:int option -> (unit -> 'a) -> 'a
