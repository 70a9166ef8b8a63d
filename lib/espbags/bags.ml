(** S-bags and P-bags for the ESP-bags algorithm (Raman et al., FMSD 2012).

    During the depth-first execution every task (async instance, plus the
    root task) owns an S-bag and every finish instance (plus the implicit
    root finish) owns a P-bag:

    - a task's S-bag holds tasks whose completed work is {e serialized}
      with the task's continuation;
    - a finish's P-bag holds completed tasks whose work may run {e in
      parallel} with the code that follows their spawn point, until the
      finish completes.

    A memory access by the current task races with an earlier access by
    task [t] iff [t] is currently in a P-bag.

    Bags are union-find classes over tasks.  Tasks are handed in as
    S-DPST node ids but interned to {e dense task indices} at
    [task_begin]: node ids are dense over {e all} nodes (every step is a
    node), so arrays indexed by them are an order of magnitude larger
    than the task count and every probe is a cache miss.  Indexed by
    dense task index, the whole union-find state (parent, rank, mark,
    memo) of a run fits in cache.  [current_task] and [in_pbag] speak
    dense indices — they are the detector's per-shadow-entry scan pair,
    so a membership test must be a few cached array reads, not a
    hashtable probe chain.  Bag marks are unboxed ints ([2*owner +
    kind]), and the task/finish stacks are int vectors, so no bag
    transition or membership test allocates. *)

(* A class root's mark encodes which bag the class currently is:
   [2*task] for the S-bag of [task], [2*finish + 1] for the P-bag of
   [finish].  Marks of non-root nodes are stale and never read. *)
let sbag task = 2 * task

let pbag finish = (2 * finish) + 1

type t = {
  mutable n_tasks : int;  (** dense task indices are [0 .. n_tasks-1] *)
  parent : Tdrutil.Ivec.t;
      (** dense task index -> union-find parent; -1 unknown *)
  rank : Tdrutil.Ivec.t;  (** meaningful at class roots *)
  mark : Tdrutil.Ivec.t;  (** class root -> current bag (encoded) *)
  pbag_root : Tdrutil.Ivec.t;
      (** finish node id -> an element (dense index) of its P-bag; -1
          empty *)
  task_stack : Tdrutil.Ivec.t;
      (** dynamically enclosing task {e node ids}, innermost last (kept
          as node ids so [task_end] can check the caller's id) *)
  dtask_stack : Tdrutil.Ivec.t;  (** parallel: their dense indices *)
  finish_stack : Tdrutil.Ivec.t;  (** dynamically enclosing finishes *)
  mutable version : int;
      (** bumped by every transition that can change a bag membership
          ([task_end], [finish_end]); lets [in_pbag] cache its answer *)
  pbag_cache : Tdrutil.Ivec.t;
      (** dense task index -> [2*version + in_pbag] memo of the last
          [in_pbag] query; -1 never queried.  Detector scans re-test the
          same tasks many times between transitions, so most tests are
          one array read instead of a union-find walk. *)
  (* Observability counters.  Placement is chosen so nothing is added to
     the per-entry scan fast path: [find]/[union] only run on memo
     misses and structural transitions, and [scan_report] counts once
     per call, not per entry. *)
  mutable n_finds : int;
  mutable n_unions : int;  (** class merges (no-op unions not counted) *)
  mutable n_scan_entries : int;  (** shadow entries tested by scans *)
  mutable serial_ver : int;
      (** bumped when a finish ending in the {e root} task's continuation
          merges its P-bag into the root S-bag: the merged tasks just
          became {!forever_serial}, so shadow state can retire their
          entries (the detectors' epoch-GC trigger) *)
}

let create () =
  {
    n_tasks = 0;
    parent = Tdrutil.Ivec.create ~capacity:256 ();
    rank = Tdrutil.Ivec.create ~capacity:256 ();
    mark = Tdrutil.Ivec.create ~capacity:256 ();
    pbag_root = Tdrutil.Ivec.create ~capacity:64 ();
    task_stack = Tdrutil.Ivec.create ~capacity:32 ();
    dtask_stack = Tdrutil.Ivec.create ~capacity:32 ();
    finish_stack = Tdrutil.Ivec.create ~capacity:32 ();
    version = 0;
    pbag_cache = Tdrutil.Ivec.create ~capacity:256 ();
    n_finds = 0;
    n_unions = 0;
    n_scan_entries = 0;
    serial_ver = 0;
  }

let n_finds t = t.n_finds
let n_unions t = t.n_unions
let n_scan_entries t = t.n_scan_entries
let serial_version t = t.serial_ver

let find t x =
  if
    x < 0
    || x >= Tdrutil.Ivec.length t.parent
    || Tdrutil.Ivec.unsafe_get t.parent x < 0
  then invalid_arg (Fmt.str "Bags.find: unknown task %d" x);
  t.n_finds <- t.n_finds + 1;
  (* path halving: every node on the walk is re-pointed at its
     grandparent, so repeated finds flatten the class *)
  let x = ref x in
  let p = ref (Tdrutil.Ivec.unsafe_get t.parent !x) in
  while !p <> !x do
    let gp = Tdrutil.Ivec.unsafe_get t.parent !p in
    Tdrutil.Ivec.unsafe_set t.parent !x gp;
    x := gp;
    p := Tdrutil.Ivec.unsafe_get t.parent gp
  done;
  !x

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    t.n_unions <- t.n_unions + 1;
    let ka = Tdrutil.Ivec.unsafe_get t.rank ra
    and kb = Tdrutil.Ivec.unsafe_get t.rank rb in
    let root, child = if ka >= kb then (ra, rb) else (rb, ra) in
    Tdrutil.Ivec.unsafe_set t.parent child root;
    if ka = kb then Tdrutil.Ivec.unsafe_set t.rank root (ka + 1);
    root
  end

let mark_of t x = Tdrutil.Ivec.unsafe_get t.mark (find t x)

(** Is task [x] {e permanently} serialized with everything that still
    runs — i.e. currently in the root task's S-bag (mark [sbag 0]; the
    root task interns to dense index 0)?  Permanent because that class
    can never turn into a P-bag again: while a task [d] lives its class
    is marked [sbag d] (only [finish_end] with [d] current merges into
    it), so a live non-root task is never in the root class, and the only
    transition that re-marks a class to a P-bag — [task_end] — therefore
    never hits it ([task_end] of the root itself is the no-op empty-
    finish-stack case).  The detectors' epoch GC retires shadow entries
    whose recording task satisfies this: such an entry can never be in a
    P-bag again, so it can never report again. *)
let forever_serial t x = mark_of t x = 0

(** Is task [x] currently in a P-bag (i.e. parallel-possible with the
    currently executing code)?  Memoized per [version]: between two
    membership-changing transitions the answer is constant, so repeated
    tests (the detector's shadow scans) cost one array read. *)
let in_pbag t x =
  if x < 0 || x >= t.n_tasks then
    (* unknown task: [find] raises the contractual Invalid_argument *)
    mark_of t x land 1 = 1
  else begin
    let c = Tdrutil.Ivec.unsafe_get t.pbag_cache x in
    if c >= 0 && c lsr 1 = t.version then c land 1 = 1
    else begin
      let b = mark_of t x land 1 = 1 in
      Tdrutil.Ivec.unsafe_set t.pbag_cache x
        ((t.version lsl 1) lor Bool.to_int b);
      b
    end
  end

(** [scan_report t entries ~out ~sink ~meta] is the detector's fused
    inner loop.  [entries] is a shadow location's recorded-access list:
    its used length in slot 0, then one entry per slot, each packed as
    [(task lsl 31) lor sid] — [task] a dense index from {!current_task},
    [sid] the recording step's id.  For every entry whose task is
    currently in a P-bag, the packed 2-int race record
    [(sid lsl 31) lor sink, meta] is appended to [out] — unless
    [sid = sink] (an access never races with its own step).  Batching
    the loop here keeps the membership-memo probe inlined (one cached
    read per entry on the fast path) and emits hit records in the same
    pass, with no per-element cross-module call, no hit scratch vector,
    and no closure.  Callers guarantee [sink] and every packed [sid] fit
    in 31 bits (they are S-DPST node ids; see the detector's record-push
    guard). *)
let scan_report t entries ~out ~sink ~meta =
  let n = Array.unsafe_get entries 0 in
  t.n_scan_entries <- t.n_scan_entries + n;
  let ver = t.version in
  (* the memo's raw backing array, hoisted: it does not grow during the
     scan, so it stays valid and the loop body reloads nothing *)
  let cdata = Tdrutil.Ivec.unsafe_data t.pbag_cache in
  for i = 1 to n do
    let e = Array.unsafe_get entries i in
    let x = e lsr 31 in
    let c = Array.unsafe_get cdata x in
    let hit =
      if c >= 0 && c lsr 1 = ver then c land 1 = 1
      else begin
        let bit = mark_of t x land 1 = 1 in
        Array.unsafe_set cdata x ((ver lsl 1) lor Bool.to_int bit);
        bit
      end
    in
    if hit then begin
      let src = e land ((1 lsl 31) - 1) in
      if src <> sink then
        Tdrutil.Ivec.push2 out ((src lsl 31) lor sink) meta
    end
  done

let current_task t =
  if Tdrutil.Ivec.is_empty t.dtask_stack then
    invalid_arg "Bags.current_task: no task executing";
  Tdrutil.Ivec.top t.dtask_stack

(* ------------------------------------------------------------------ *)
(* ESP-bags transitions                                                *)
(* ------------------------------------------------------------------ *)

(** A task starts: fresh singleton S-bag {task}.  [task] (a node id) is
    interned to the next dense index here. *)
let task_begin t ~task =
  let d = t.n_tasks in
  t.n_tasks <- d + 1;
  Tdrutil.Ivec.push t.parent d;
  Tdrutil.Ivec.push t.rank 0;
  Tdrutil.Ivec.push t.mark (sbag d);
  Tdrutil.Ivec.push t.pbag_cache (-1);
  Tdrutil.Ivec.push t.task_stack task;
  Tdrutil.Ivec.push t.dtask_stack d

(** A task ends: its S-bag contents move to the P-bag of its immediately
    enclosing finish — they may now run in parallel with the continuation
    of the parent task, until that finish completes. *)
let task_end t ~task =
  if Tdrutil.Ivec.is_empty t.task_stack || Tdrutil.Ivec.top t.task_stack <> task
  then invalid_arg "Bags.task_end: task stack mismatch";
  ignore (Tdrutil.Ivec.pop t.task_stack);
  let d = Tdrutil.Ivec.pop t.dtask_stack in
  t.version <- t.version + 1;
  if not (Tdrutil.Ivec.is_empty t.finish_stack) then begin
    (* the root task ends after the root finish; nothing outlives it *)
    let ief = Tdrutil.Ivec.top t.finish_stack in
    let r = find t d in
    match Tdrutil.Ivec.get t.pbag_root ief with
    | -1 ->
        Tdrutil.Ivec.unsafe_set t.mark r (pbag ief);
        Tdrutil.Ivec.unsafe_set t.pbag_root ief r
    | existing ->
        let root = union t r existing in
        Tdrutil.Ivec.unsafe_set t.mark root (pbag ief);
        Tdrutil.Ivec.unsafe_set t.pbag_root ief root
  end

(** A finish region starts: its P-bag is empty. *)
let finish_begin t ~finish =
  Tdrutil.Ivec.ensure t.pbag_root (finish + 1) ~fill:(-1);
  Tdrutil.Ivec.unsafe_set t.pbag_root finish (-1);
  Tdrutil.Ivec.push t.finish_stack finish

(** A finish region ends: everything in its P-bag is now serialized with
    the continuation of the enclosing task, so it moves to that task's
    S-bag. *)
let finish_end t ~finish =
  if
    Tdrutil.Ivec.is_empty t.finish_stack
    || Tdrutil.Ivec.top t.finish_stack <> finish
  then invalid_arg "Bags.finish_end: finish stack mismatch";
  ignore (Tdrutil.Ivec.pop t.finish_stack);
  t.version <- t.version + 1;
  match Tdrutil.Ivec.get t.pbag_root finish with
  | -1 -> ()
  | r ->
      Tdrutil.Ivec.unsafe_set t.pbag_root finish (-1);
      let task = current_task t in
      let root = union t r (find t task) in
      Tdrutil.Ivec.unsafe_set t.mark root (sbag task);
      if task = 0 then t.serial_ver <- t.serial_ver + 1
