(** Instrumentation interface between the interpreter and dynamic
    analyses: structural transitions (task and finish begin/end, carrying
    the S-DPST node's id) and monitored memory accesses, which identify their
    location by {e interned id} (the dense [int] of {!Addr.Intern}) so the
    per-access path never hashes or allocates a boxed address.  The
    ESP-bags detectors implement this interface. *)

type access = Read | Write

val pp_access : access Fmt.t

type t = {
  on_init : Addr.Intern.t -> Sdpst.Node.tree -> unit;
      (** the run's address interner and S-DPST, delivered once before
          execution starts; keep the interner to reconstruct boxed
          addresses with {!Addr.Intern.of_id}, the tree to read the nodes
          the other events name *)
  on_task_begin : Sdpst.Node.t -> unit;
      (** an async task (or the root task) starts *)
  on_task_end : Sdpst.Node.t -> unit;
  on_finish_begin : Sdpst.Node.t -> unit;
      (** a finish region (or the implicit root finish) starts *)
  on_finish_end : Sdpst.Node.t -> unit;
  on_access : step:Sdpst.Node.t -> bid:int -> idx:int -> int -> access -> unit;
      (** a monitored access to the location with the given interned id,
          by the statement at index [idx] of block [bid], while [step] is
          the current step node *)
}

(** The monitor that ignores everything. *)
val nop : t

(** Compose two monitors (events delivered left first). *)
val both : t -> t -> t

(** [filter ~keep ?on_skip m] delivers only the accesses [keep] accepts
    to [m]; skipped accesses invoke [on_skip] instead.  Structural events
    pass through untouched. *)
val filter :
  keep:(bid:int -> idx:int -> int -> access -> bool) ->
  ?on_skip:(unit -> unit) ->
  t ->
  t
