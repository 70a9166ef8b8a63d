(** S-bags and P-bags for the ESP-bags algorithm (Raman et al., FMSD 2012).

    During the depth-first execution every task (async instance plus the
    root task) owns an S-bag and every finish instance (plus the implicit
    root finish) owns a P-bag.  A memory access by the current task races
    with an earlier access by task [t] iff [t] is currently in a P-bag.
    Bags are union-find classes over tasks.  Structural transitions take
    S-DPST node ids, but tasks are interned to dense indices at
    {!task_begin}: {!current_task} returns the innermost task's dense
    index and {!in_pbag} takes one, which keeps the scan-side state small
    enough to stay in cache. *)

type t

val create : unit -> t

(** Observability counters since [create].  Counting is kept off the
    per-entry scan fast path: finds/unions only happen on memo misses
    and structural transitions, and scan entries are counted once per
    {!scan_report} call. *)

val n_finds : t -> int
(** Union-find root lookups (each may walk and halve a path). *)

val n_unions : t -> int
(** Class merges; unions of an already-shared class are not counted. *)

val n_scan_entries : t -> int
(** Shadow-location entries tested across all {!scan_report} calls. *)

(** The innermost executing task, as its dense index (the value to store
    in shadow state and later pass to {!in_pbag}).
    @raise Invalid_argument if no task has begun. *)
val current_task : t -> int

(** Is this task (a dense index from {!current_task}) currently in a
    P-bag (parallel-possible with the currently executing code)?
    @raise Invalid_argument for an unknown task index. *)
val in_pbag : t -> int -> bool

(** Is this task {e permanently} serialized with everything that still
    runs — in the root task's S-bag, which no transition can ever turn
    back into a P-bag (see bags.ml for the argument)?  Shadow entries
    recorded by such a task can never report again, so the detectors'
    epoch GC drops them.
    @raise Invalid_argument for an unknown task index. *)
val forever_serial : t -> int -> bool

(** Bumped each time a batch of tasks becomes {!forever_serial} (a
    finish closing in the root task's continuation).  Detectors compare
    a per-location stamp against it to lazily trigger retirement. *)
val serial_version : t -> int

(** [scan_report t entries ~out ~sink ~meta] appends to [out] the packed
    2-int race record [(sid lsl 31) lor sink, meta] for every entry of
    [entries] — its used length in slot 0, then entries packed as
    [(task lsl 31) lor sid] with [task] a dense index from
    {!current_task} — whose task is currently in a P-bag, skipping
    entries whose [sid] equals [sink].  The detector's fused
    scan-and-report inner loop; [sink] and packed [sid]s must fit in 31
    bits (see bags.ml). *)
val scan_report :
  t -> int array -> out:Tdrutil.Ivec.t -> sink:int -> meta:int -> unit

(** A task starts: fresh singleton S-bag. *)
val task_begin : t -> task:int -> unit

(** A task ends: its S-bag contents move to the P-bag of its immediately
    enclosing finish.
    @raise Invalid_argument if [task] is not the innermost task. *)
val task_end : t -> task:int -> unit

(** A finish region starts (empty P-bag). *)
val finish_begin : t -> finish:int -> unit

(** A finish region ends: its P-bag contents move to the S-bag of the
    enclosing task.
    @raise Invalid_argument if [finish] is not the innermost finish. *)
val finish_end : t -> finish:int -> unit

