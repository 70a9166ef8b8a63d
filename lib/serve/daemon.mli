(** The [tdrepair serve] daemon: a single-threaded [select] event loop
    over a Unix-domain socket, with jobs executed on the
    {!Supervisor}'s worker domains.

    Protocol: newline-delimited JSON frames ({!Protocol}).  Hardening:
    a malformed frame gets a typed error reply and the connection
    survives; a frame exceeding [max_frame] bytes gets an error reply
    and the connection is closed (this bounds per-connection
    buffering).  A client disconnecting does not cancel its admitted
    jobs — they run to completion and the reply is dropped.

    Every admitted job reaches {e exactly one} terminal reply
    ([ok]/[degraded]/[failed]/[cancelled]; [overloaded] is the
    admission-refused reply).  Late completions from abandoned wedged
    workers are dropped by the terminal table.

    Shutdown (SIGTERM, SIGINT, or a ["shutdown"] frame) drains: the
    listener closes, in-flight and queued jobs run to their terminal
    replies, workers are joined, the socket file is unlinked. *)

type config = {
  socket : string;
  workers : int;
  queue_capacity : int;
  max_frame : int;  (** per-connection frame byte limit *)
  cache_capacity : int;  (** 0 disables the result cache *)
  retries : int;
  backoff_ms : int;
  default_timeout_ms : int option;  (** per-job cooperative watchdog *)
  hard_watchdog_ms : int;
      (** busy-beyond-this workers are declared wedged and respawned *)
  verbose : bool;
}

(** Run the daemon until shutdown.  Prints one ["listening on ..."]
    line when ready (tests wait for it). *)
val run : config -> unit
