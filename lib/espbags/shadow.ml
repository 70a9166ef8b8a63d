(** The sequential race-detector core, shared by both backends.

    A sequential detector is a shadow memory that records every monitored
    access, plus a test of whether a recorded access may run in parallel
    with the current step (paper §4.1).  {!Make} is everything but the
    test: the packed race buffer, disk spill, SRW rows,
    MRW access lists with per-step epoch dedup and scan-replay memos, lazy
    epoch-GC triggering, stats assembly, static pruning and [detect].  An
    {!ORDER} supplies the test and what it needs: the structural
    transitions, what an access records, and when a recorded access can
    be retired.  {!Detector} (ESP-bags) and [Vclock.Seq] (vector clocks)
    are its two instances.

    The dev profile compiles every library [-opaque], so no call across
    modules is inlined, a functor argument's included: {!ORDER} works on
    whole rows and lists, one call per access and list, never one per
    shadow entry. *)

(* Hot path: no allocation, no hashing.  Locations arrive as dense
   interned ids ({!Rt.Addr.Intern}) indexing slab tables; a location's
   MRW state is an int row plus two int arrays of packed entries, and a
   step is its S-DPST node id, so the shadow holds no pointers.
   Per-location step epochs (the last recorded reader / writer step)
   dedup a list in one compare: the depth-first run never resumes a
   step, so a step's accesses to a location are contiguous.  The
   differential suite holds both instances to the races of the seed
   detector, a test-only oracle.  At scale (DESIGN.md §15) slab chunks,
   lazy epoch GC and race spill bound memory without changing a
   report. *)

module type ORDER = sig
  type t
  (** The ordering state of one run. *)

  val create : unit -> t

  (** The four structural transitions, delivered in depth-first order. *)

  val task_begin : t -> Sdpst.Node.t -> unit
  val task_end : t -> Sdpst.Node.t -> unit
  val finish_begin : t -> Sdpst.Node.t -> unit
  val finish_end : t -> Sdpst.Node.t -> unit

  (** {2 SRW rows}

      A location's SRW row is [srw_stride] ints (a power of two, so a row
      never straddles a slab chunk): the writer slot at the row's offset
      [off], the reader slot at [off + srw_stride / 2].  A slot is
      [[task; step id; ...]], task [-1] when empty; the core owns the
      step id column, the order the rest. *)

  val srw_stride : int

  (** [srw_parallel o row i]: may the access recorded in the non-empty
      slot at [row.(i)] run in parallel with the current step? *)
  val srw_parallel : t -> int array -> int -> bool

  (** Record the current task in the slot at [row.(i)]. *)
  val srw_store : t -> int array -> int -> unit

  (** {2 MRW lists}

      A location keeps one list per direction, an [int array] whose slot
      0 holds the used length [n]: its entries sit in slots [1 .. n],
      [entry_stride] ints each, the first packed as
      [(task lsl 31) lor step id] and the rest the order's.  The core
      grows and shrinks the arrays; the order reads and writes them in
      place. *)

  (** Ints per entry. *)
  val entry_stride : int

  (** Append the current step [sid] to a list that has room for one
      more entry. *)
  val record : t -> int array -> sid:int -> unit

  (** [scan_report o list ~out ~sink ~meta] appends the packed record
      [(sid lsl 31) lor sink, meta] to [out] for every entry that may
      run in parallel with the current step, skipping entries whose
      [sid] is [sink]. *)
  val scan_report :
    t -> int array -> out:Tdrutil.Ivec.t -> sink:int -> meta:int -> unit

  (** Bumped, only inside a structural transition, each time some
      recorded entries become ordered before all future work; a location
      whose stamp lags sweeps itself with {!retire} on its next access. *)
  val retire_version : t -> int

  (** Drop, in place and order-preserving, the entries of a list that
      can never report again, and lower its used length; returns how
      many. *)
  val retire : t -> int array -> int

  (** The order's counters (the core adds the ["detector."] prefix): the
      first list goes after [skipped], the second after [gc_retired]. *)
  val stats : t -> (string * int) list * (string * int) list
end

module type S = sig
  type order

  type mode = Trace.mode = Srw | Mrw

  val pp_mode : mode Fmt.t

  type t = private {
    mode : mode;
    order : order;  (** the run's ordering state *)
    mutable monitor : Rt.Monitor.t;  (** pass to {!Rt.Interp.run} *)
    mutable tree : Sdpst.Node.tree;  (** the run's, from [on_init] *)
    r_buf : Tdrutil.Ivec.t;
        (** race records in report order: [(src lsl 31) lor sink] step
            ids, then [(addr lsl 2) lor kind] *)
    spill : Spill.t option;
        (** overflow sink: past its cap, [r_buf] drains to disk *)
    mutable drained : int;  (** [r_buf] ints drained to disk so far *)
    mutable intern : Rt.Addr.Intern.t;  (** the run's, from [on_init] *)
    mutable n_accesses : int;  (** monitored accesses checked *)
    mutable n_locations : int;  (** distinct locations touched *)
    mutable n_skipped : int;  (** accesses skipped by a static pre-pass *)
    mutable n_retired : int;  (** shadow entries dropped by epoch GC *)
    mutable shadow_info : unit -> int * int;
        (** current (slab count, allocated shadow words) *)
  }

  (** Races recorded so far (spilled ones included), in report order. *)
  val races : t -> Race.t list

  (** [races] of the finished run, deferred: the reader keeps only the
      race buffer, the tree, the address table and the spill file, not
      the shadow memory or the ordering state. *)
  val race_reader : t -> unit -> Race.t list

  (** The distinct step pairs of {!races}, with multiplicities, read in
      one pass over the spill file and then [r_buf] without building a
      race record. *)
  val pairs : t -> Race.Pairs.t

  (** The run's counters as ["detector."]-prefixed keys for an
      {!Obs.Metrics} registry: accesses, locations, races, skipped, the
      order's own counters, shadow slabs and words, entries retired by
      epoch GC, the order's late counters, and records spilled to disk. *)
  val stats : t -> (string * int) list

  (** Including spilled records. *)
  val race_count : t -> int

  (** Race records spilled to disk so far. *)
  val n_spilled : t -> int

  (** No race reported? *)
  val clean : t -> bool

  (** Fresh detector.  [chunk] is the shadow tables' slab size in slots
      (default {!Tdrutil.Islab.default_chunk}); [spill] bounds in-memory
      race records.  Neither changes the reported races.
      @raise Invalid_argument for a chunk size {!Tdrutil.Islab.create}
      refuses *)
  val make : ?chunk:int -> ?spill:Spill.config -> mode -> t

  (** Run a program under a fresh detector; returns the detector (with
      its recorded races) and the execution result.  The spill file is
      closed however the run ends.

      [keep] is a per-statement monitoring predicate (typically a static
      MHP pre-pass); accesses of statements it rejects are skipped and
      counted in [n_skipped].  With MRW, skipping statements proven
      race-free leaves the reported race set unchanged.  [chunk] and
      [spill] as in {!make}. *)
  val detect :
    ?fuel:int ->
    ?keep:(bid:int -> idx:int -> bool) ->
    ?chunk:int ->
    ?spill:Spill.config ->
    mode ->
    Mhj.Ast.program ->
    t * Rt.Interp.result
end

(* A detector's tree until [on_init] delivers its run's. *)
let no_tree = Sdpst.Node.create_tree ~main_bid:(-1)

module Make (O : ORDER) : S with type order = O.t = struct
  type order = O.t
  type mode = Trace.mode = Srw | Mrw

  let pp_mode = Trace.pp_mode

  (* Races are packed 2-int records, materialized only by [races]: a
     report is one [Ivec.push2], with no allocation and no write barrier. *)
  type t = {
    mode : mode;
    order : order;
    mutable monitor : Rt.Monitor.t;
    mutable tree : Sdpst.Node.tree;
    r_buf : Tdrutil.Ivec.t;
    spill : Spill.t option;
    mutable drained : int;
    mutable intern : Rt.Addr.Intern.t;
    mutable n_accesses : int;
    mutable n_locations : int;
    mutable n_skipped : int;
    mutable n_retired : int;
    mutable shadow_info : unit -> int * int;
  }

  (* packed race-kind codes, decoded by {!Trace.kind_of_code} *)
  let wr, rw, ww = (0, 1, 2)

  let n_spilled t =
    match t.spill with None -> 0 | Some sp -> Spill.n_spilled sp

  let race_count t = n_spilled t + (Tdrutil.Ivec.length t.r_buf / 2)
  let clean t = race_count t = 0
  let sid_mask = (1 lsl 31) - 1

  let race_reader t =
    let r_buf = t.r_buf and tree = t.tree and intern = t.intern in
    let spill = t.spill in
    fun () ->
      let rec go i acc =
        if i < 0 then acc
        else
          let ss = Tdrutil.Ivec.unsafe_get r_buf i
          and meta = Tdrutil.Ivec.unsafe_get r_buf (i + 1) in
          go (i - 2)
            (Race.make ~tree ~src:(ss lsr 31) ~sink:(ss land sid_mask)
               ~addr:(Rt.Addr.Intern.of_id intern (meta lsr 2))
               ~kind:(Trace.kind_of_code (meta land 3))
            :: acc)
      in
      let in_mem = go (Tdrutil.Ivec.length r_buf - 2) [] in
      match spill with
      | None -> in_mem
      | Some sp ->
          (* spilled records came first: report order is preserved *)
          Spill.records sp ~tree @ in_mem

  let races t = race_reader t ()

  let pairs t =
    Race.Pairs.build ~tree:t.tree (fun add ->
        Option.iter (fun sp -> Spill.iter_keys sp (fun key -> ignore (add key)))
          t.spill;
        let n = Tdrutil.Ivec.length t.r_buf in
        let i = ref 0 in
        while !i < n do
          ignore (add (Tdrutil.Ivec.unsafe_get t.r_buf !i));
          i := !i + 2
        done)

  let stats t =
    let slabs, words = t.shadow_info () in
    let early, late = O.stats t.order in
    let key (k, v) = ("detector." ^ k, v) in
    List.map key
      ([ ("accesses", t.n_accesses); ("locations", t.n_locations);
         ("races", race_count t); ("skipped", t.n_skipped) ]
      @ early
      @ [ ("shadow_slabs", slabs); ("shadow_words", words);
          ("gc_retired", t.n_retired) ]
      @ late
      @ [ ("spilled_races", n_spilled t) ])

  let report det ~src_id ~sink_id ~addr ~kind =
    if src_id <> sink_id then
      Tdrutil.Ivec.push2 det.r_buf
        ((src_id lsl 31) lor sink_id)
        ((addr lsl 2) lor kind)

  (* Drain to disk past the spill cap, at the end of an access. *)
  let maybe_spill det =
    match det.spill with
    | None -> ()
    | Some sp ->
        if Tdrutil.Ivec.length det.r_buf >= Spill.cap_ints sp then begin
          Spill.append sp ~intern:det.intern det.r_buf;
          det.drained <- det.drained + Tdrutil.Ivec.length det.r_buf;
          Tdrutil.Ivec.clear det.r_buf;
          Tdrutil.Ivec.compact det.r_buf
        end

  (* Packed step ids are 31-bit: checked where ids enter shadow state. *)
  let check_sid sid =
    if sid < 0 || sid >= 1 lsl 31 then
      invalid_arg "Shadow: step id exceeds 31 bits"

  (* ---------------------------------------------------------------- *)
  (* SRW                                                                *)
  (* ---------------------------------------------------------------- *)

  (* One [Islab.chunk] probe serves the whole row; the step column is
     only read behind a task >= 0 guard. *)
  let srw_store o row i sid =
    check_sid sid;
    O.srw_store o row i;
    Array.unsafe_set row (i + 1) sid

  let srw_access ?chunk det =
    let o = det.order in
    let stride = O.srw_stride in
    let half = stride / 2 in
    let tbl = Tdrutil.Islab.create ?chunk ~fill:(-1) () in
    det.shadow_info <-
      (fun () -> (Tdrutil.Islab.n_chunks tbl, Tdrutil.Islab.words tbl));
    fun ~step ~bid:_ ~idx:_ addr kind ->
      det.n_accesses <- det.n_accesses + 1;
      let row = Tdrutil.Islab.chunk tbl (addr * stride) in
      let w = (addr * stride) land (Array.length row - 1) in
      let r = w + half and sid = step in
      let w_set = Array.unsafe_get row w >= 0
      and r_set = Array.unsafe_get row r >= 0 in
      if not (w_set || r_set) then det.n_locations <- det.n_locations + 1;
      (match kind with
      | Rt.Monitor.Read ->
          if w_set && O.srw_parallel o row w then
            report det ~src_id:(Array.unsafe_get row (w + 1)) ~sink_id:sid
              ~addr ~kind:wr;
          if not (r_set && O.srw_parallel o row r) then srw_store o row r sid
      | Rt.Monitor.Write ->
          if w_set && O.srw_parallel o row w then
            report det ~src_id:(Array.unsafe_get row (w + 1)) ~sink_id:sid
              ~addr ~kind:ww;
          if r_set && O.srw_parallel o row r then
            report det ~src_id:(Array.unsafe_get row (r + 1)) ~sink_id:sid
              ~addr ~kind:rw;
          srw_store o row w sid);
      maybe_spill det

  (* ---------------------------------------------------------------- *)
  (* MRW                                                                *)
  (* ---------------------------------------------------------------- *)

  (* A location's header is one 8-int row of an [Islab]: the ids of its
     last recorded writer and reader steps (-1 none), [O.retire_version]
     at its last sweep (-1: never accessed), and two scan-replay ranges.
     Within one step no transition changes a concurrency answer and the
     step's own entry never reports, so its repeated same-kind scans
     append identical runs: the first scan's range of [r_buf] is
     re-emitted with a blit.  A step that scanned as a reader (writer)
     is the last recorded reader (writer), so the epochs say whose range
     it is.  Ranges count from the first record ever buffered, so one
     that starts before [drained] went to disk with a drain and is
     scanned again. *)
  let hdr_stride = 8
  let w_epoch, r_epoch, gc_ver = (0, 1, 2)
  let r_lo, r_hi, w_lo, w_hi = (3, 4, 5, 6)

  (* Record step [sid] in [l], the list at [i] of [lists], which first
     grows if full: a list holds a power-of-two number of entries. *)
  let push o lists i l sid =
    check_sid sid;
    let len = Array.length l and stride = O.entry_stride in
    if Array.unsafe_get l 0 + stride < len then O.record o l ~sid
    else begin
      let l' = Array.make (if len = 1 then 1 + stride else (2 * len) - 1) 0 in
      Array.blit l 0 l' 0 len;
      Tdrutil.Slab.set lists i l';
      O.record o l' ~sid
    end

  let mrw_access ?chunk det version =
    let o = det.order in
    let hdr = Tdrutil.Islab.create ?chunk ~fill:(-1) () in
    (* a location's writer list sits at [2 * addr] of [lists], its reader
       list next to it; untouched lists share one never-written empty
       array *)
    let empty = [| 0 |] in
    let lists = Tdrutil.Slab.create ?chunk ~fill:empty () in
    det.shadow_info <-
      (fun () ->
        (* the tables plus the lists: the lists are the part epoch GC
           reclaims, so the bench must see them *)
        let words = ref (Tdrutil.Islab.words hdr + Tdrutil.Slab.words lists) in
        Tdrutil.Slab.iter_present
          (fun l -> if l != empty then words := !words + Array.length l)
          lists;
        (Tdrutil.Islab.n_chunks hdr + Tdrutil.Slab.n_chunks lists, !words));
    (* epoch-GC sweep of one list; shrink its array when the survivors
       fit in a quarter, or the capacity freed by a big retirement wave
       would stay pinned *)
    let sweep i =
      let l = Tdrutil.Slab.get lists i in
      if Array.unsafe_get l 0 = 0 then 0
      else begin
        let n = O.retire o l in
        let used = Array.unsafe_get l 0 and cap = Array.length l - 1 in
        if cap >= 32 && used * 4 <= cap then
          Tdrutil.Slab.set lists i (Array.sub l 0 (used + 1));
        n
      end
    in
    fun ~step ~bid:_ ~idx:_ addr kind ->
      det.n_accesses <- det.n_accesses + 1;
      let h = Tdrutil.Islab.chunk hdr (addr * hdr_stride) in
      let at = (addr * hdr_stride) land (Array.length h - 1) in
      (* first access, or lazy epoch GC: a retirement wave happened since
         this location's last sweep (always between steps, so never
         mid-scan-replay) *)
      let v = !version and g = Array.unsafe_get h (at + gc_ver) in
      if g <> v then begin
        Array.unsafe_set h (at + gc_ver) v;
        if g < 0 then det.n_locations <- det.n_locations + 1
        else
          det.n_retired <-
            det.n_retired + sweep (2 * addr) + sweep ((2 * addr) + 1)
      end;
      let sid = step in
      let base = det.drained and out = det.r_buf in
      (match kind with
      | Rt.Monitor.Read ->
          let lo = Array.unsafe_get h (at + r_lo) in
          if Array.unsafe_get h (at + r_epoch) = sid && lo >= base then
            Tdrutil.Ivec.append_slice out (lo - base)
              (Array.unsafe_get h (at + r_hi) - base)
          else begin
            Array.unsafe_set h (at + r_lo) (base + Tdrutil.Ivec.length out);
            O.scan_report o (Tdrutil.Slab.get lists (2 * addr)) ~out ~sink:sid
              ~meta:((addr lsl 2) lor wr);
            Array.unsafe_set h (at + r_hi) (base + Tdrutil.Ivec.length out);
            if Array.unsafe_get h (at + r_epoch) <> sid then begin
              Array.unsafe_set h (at + r_epoch) sid;
              let i = (2 * addr) + 1 in
              push o lists i (Tdrutil.Slab.get lists i) sid
            end
          end
      | Rt.Monitor.Write ->
          let lo = Array.unsafe_get h (at + w_lo) in
          if Array.unsafe_get h (at + w_epoch) = sid && lo >= base then
            Tdrutil.Ivec.append_slice out (lo - base)
              (Array.unsafe_get h (at + w_hi) - base)
          else begin
            let wl = Tdrutil.Slab.get lists (2 * addr) in
            Array.unsafe_set h (at + w_lo) (base + Tdrutil.Ivec.length out);
            O.scan_report o wl ~out ~sink:sid ~meta:((addr lsl 2) lor ww);
            O.scan_report o (Tdrutil.Slab.get lists ((2 * addr) + 1)) ~out
              ~sink:sid ~meta:((addr lsl 2) lor rw);
            Array.unsafe_set h (at + w_hi) (base + Tdrutil.Ivec.length out);
            if Array.unsafe_get h (at + w_epoch) <> sid then begin
              Array.unsafe_set h (at + w_epoch) sid;
              push o lists (2 * addr) wl sid
            end
          end);
      maybe_spill det

  let make ?chunk ?spill mode =
    let det =
      { mode; order = O.create (); monitor = Rt.Monitor.nop;
        tree = no_tree;
        r_buf = Tdrutil.Ivec.create ();
        spill = Option.map (fun cfg -> Spill.create cfg ~mode) spill;
        drained = 0; intern = Rt.Addr.Intern.create (); n_accesses = 0;
        n_locations = 0; n_skipped = 0; n_retired = 0;
        shadow_info = (fun () -> (0, 0)) }
    in
    let o = det.order in
    (* the retirement version moves only inside transitions: read it
       there, so an access compares a cached int instead of calling [O] *)
    let version = ref (O.retire_version o) in
    let after transition n =
      transition o n;
      version := O.retire_version o
    in
    let on_access =
      match mode with
      | Srw -> srw_access ?chunk det
      | Mrw -> mrw_access ?chunk det version
    in
    det.monitor <-
      {
        Rt.Monitor.on_init =
          (fun intern tree ->
            det.intern <- intern;
            det.tree <- tree);
        on_task_begin = after O.task_begin;
        on_task_end = after O.task_end;
        on_finish_begin = after O.finish_begin;
        on_finish_end = after O.finish_end;
        on_access;
      };
    det

  let detect ?fuel ?keep ?chunk ?spill mode prog =
    let det = make ?chunk ?spill mode in
    let monitor =
      match keep with
      | None -> det.monitor
      | Some keep ->
          Rt.Monitor.filter
            ~keep:(fun ~bid ~idx _addr _kind -> keep ~bid ~idx)
            ~on_skip:(fun () -> det.n_skipped <- det.n_skipped + 1)
            det.monitor
    in
    (* a run that raises after its first drain must not leak the spill
       file's descriptor: channels are never closed by the GC *)
    let res =
      Fun.protect
        ~finally:(fun () -> Option.iter Spill.close det.spill)
        (fun () -> Rt.Interp.run ?fuel ~monitor prog)
    in
    (det, res)
end
