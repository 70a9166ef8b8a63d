(** Instrumentation interface between the interpreter and dynamic
    analyses.

    The interpreter owns S-DPST construction (it knows the execution
    structure) and reports every structural transition and monitored memory
    access to an optional monitor.  The ESP-bags race detectors implement
    this interface; [task] events carry the id of the S-DPST node standing
    for the task (async or root) or finish region, and accesses carry the
    current step's id so races can be recorded as step pairs.

    Accesses identify their location by {e interned id} — the dense [int]
    the interpreter resolves every {!Addr.t} to at load/allocation time
    (see {!Addr.Intern}) — so the per-access path never hashes or
    allocates a boxed address.  [on_init] delivers the run's interner
    and tree before execution starts; a monitor that needs to render an
    address (e.g. in a race report) keeps it and calls
    {!Addr.Intern.of_id}.

    Accesses also carry their static position — the block id and statement
    index of the statement whose expression evaluation performs the access —
    so monitors can make per-statement decisions.  {!filter} uses it to
    skip accesses a static pre-pass proved sequential. *)

type access = Read | Write

let pp_access ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"

type t = {
  on_init : Addr.Intern.t -> Sdpst.Node.tree -> unit;
      (** the run's address interner and S-DPST, delivered once before
          execution *)
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

let nop =
  {
    on_init = (fun _ _ -> ());
    on_task_begin = ignore;
    on_task_end = ignore;
    on_finish_begin = ignore;
    on_finish_end = ignore;
    on_access = (fun ~step:_ ~bid:_ ~idx:_ _ _ -> ());
  }

(** Compose two monitors (events delivered left first). *)
let both a b =
  {
    on_init =
      (fun intern tree ->
        a.on_init intern tree;
        b.on_init intern tree);
    on_task_begin =
      (fun n ->
        a.on_task_begin n;
        b.on_task_begin n);
    on_task_end =
      (fun n ->
        a.on_task_end n;
        b.on_task_end n);
    on_finish_begin =
      (fun n ->
        a.on_finish_begin n;
        b.on_finish_begin n);
    on_finish_end =
      (fun n ->
        a.on_finish_end n;
        b.on_finish_end n);
    on_access =
      (fun ~step ~bid ~idx addr k ->
        a.on_access ~step ~bid ~idx addr k;
        b.on_access ~step ~bid ~idx addr k);
  }

(** [filter ~keep ?on_skip m] delivers only the accesses [keep] accepts to
    [m]; skipped accesses invoke [on_skip].  Structural events pass
    through untouched, so detector bag state stays consistent. *)
let filter ~(keep : bid:int -> idx:int -> int -> access -> bool)
    ?(on_skip = fun () -> ()) m =
  {
    m with
    on_access =
      (fun ~step ~bid ~idx addr k ->
        if keep ~bid ~idx addr k then m.on_access ~step ~bid ~idx addr k
        else on_skip ());
  }
