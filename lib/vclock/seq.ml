(* See seq.mli. *)

module Order = struct
  type t = {
    clocks : Clock.t Tdrutil.Vec.t;
        (** task index -> clock; replaced by [dead] once the task ends *)
    dead : Clock.t;  (** shared sentinel standing in for released clocks *)
    mutable task_stack : int list;  (** task indices, innermost first *)
    mutable fin_stack : Clock.t list;  (** open finishes' accumulators *)
    mutable cur : Clock.t;  (** current task's clock (cached stack top) *)
    mutable cur_tidx : int;
    mutable retire_ver : int;  (** retirement waves so far *)
    mutable retire_clock : Clock.t;
        (** the root's clock at the last wave: entries it covers are
            permanently ordered (see seq.mli) *)
    mutable n_tasks : int;
    mutable n_merges : int;  (** clock fold/merge operations *)
    mutable n_scan_entries : int;  (** MRW shadow entries scanned *)
    mutable n_clocks_freed : int;  (** clocks released at task end *)
  }

  let create () =
    { clocks = Tdrutil.Vec.create (); dead = Clock.create ();
      task_stack = []; fin_stack = []; cur = Clock.create (); cur_tidx = -1;
      retire_ver = 0; retire_clock = Clock.create (); n_tasks = 0;
      n_merges = 0; n_scan_entries = 0; n_clocks_freed = 0 }

  let cur o = o.cur

  let task_begin o _ =
    let tidx = o.n_tasks in
    if tidx >= 1 lsl 31 then
      invalid_arg "Vclock.Seq: task index exceeds 31 bits";
    o.n_tasks <- tidx + 1;
    let c =
      match o.task_stack with
      | [] -> Clock.create ()
      | parent :: _ ->
          let pc = Tdrutil.Vec.get o.clocks parent in
          (* copy before the parent's self-increment: accesses the parent
             recorded before this fork are inherited (ordered), accesses
             after it are not *)
          let c = Clock.copy pc in
          Clock.incr pc parent;
          c
    in
    Clock.set c tidx 1;
    Tdrutil.Vec.ensure o.clocks (tidx + 1) ~fill:c;
    Tdrutil.Vec.unsafe_set o.clocks tidx c;
    o.task_stack <- tidx :: o.task_stack;
    o.cur <- c;
    o.cur_tidx <- tidx

  let task_end o _ =
    match o.task_stack with
    | [] -> invalid_arg "Vclock.Seq.task_end: empty task stack"
    | tidx :: rest ->
        o.task_stack <- rest;
        (match o.fin_stack with
        | [] -> () (* root task: nothing joins it *)
        | acc :: _ ->
            Clock.merge ~into:acc (Tdrutil.Vec.get o.clocks tidx);
            o.n_merges <- o.n_merges + 1);
        (* the ended task's clock is only ever read at its own forks and
           the end-merge above: release it *)
        Tdrutil.Vec.unsafe_set o.clocks tidx o.dead;
        o.n_clocks_freed <- o.n_clocks_freed + 1;
        (match rest with
        | [] -> ()
        | parent :: _ ->
            o.cur <- Tdrutil.Vec.get o.clocks parent;
            o.cur_tidx <- parent)

  let finish_begin o _ = o.fin_stack <- Clock.create () :: o.fin_stack

  let finish_end o _ =
    match o.fin_stack with
    | [] -> invalid_arg "Vclock.Seq.finish_end: empty finish stack"
    | acc :: rest ->
        o.fin_stack <- rest;
        (* every task joined here folded its clock into [acc]; the merge
           orders all of their accesses before the continuation *)
        Clock.merge ~into:o.cur acc;
        o.n_merges <- o.n_merges + 1;
        match o.task_stack with
        | [ _root ] ->
            (* only the root is live: snapshot its clock, since the lazy
               per-location sweeps run later, when other tasks are live
               again, and must test against this frozen clock *)
            o.retire_ver <- o.retire_ver + 1;
            o.retire_clock <- Clock.copy o.cur
        | _ -> ()

  let srw_stride = 8

  let srw_parallel o row i =
    not
      (Clock.covers o.cur (Array.unsafe_get row i)
         (Array.unsafe_get row (i + 2)))

  let srw_store o row i =
    Array.unsafe_set row i o.cur_tidx;
    Array.unsafe_set row (i + 2) (Clock.get o.cur o.cur_tidx)

  (* an MRW entry is the packed task and step, then the task's epoch *)
  let entry_stride = 2

  let record o l ~sid =
    let n = Array.unsafe_get l 0 in
    Array.unsafe_set l (n + 1) ((o.cur_tidx lsl 31) lor sid);
    Array.unsafe_set l (n + 2) (Clock.get o.cur o.cur_tidx);
    Array.unsafe_set l 0 (n + 2)

  (* one clock read per entry, in place of a union-find find; the
     clock's array is hoisted, since a scan grows no clock *)
  let scan_report o l ~out ~sink ~meta =
    let n = Array.unsafe_get l 0 / 2 in
    o.n_scan_entries <- o.n_scan_entries + n;
    let cv = Clock.data o.cur in
    let len = Array.length cv in
    for k = 0 to n - 1 do
      let e = Array.unsafe_get l ((2 * k) + 1) in
      let t = e lsr 31 in
      let known = if t < len then Array.unsafe_get cv t else 0 in
      if known < Array.unsafe_get l ((2 * k) + 2) then begin
        let src = e land ((1 lsl 31) - 1) in
        if src <> sink then Tdrutil.Ivec.push2 out ((src lsl 31) lor sink) meta
      end
    done

  let retire_version o = o.retire_ver

  let retire o l =
    let n = Array.unsafe_get l 0 in
    let rc = Clock.data o.retire_clock in
    let len = Array.length rc in
    let j = ref 0 in
    for i = 1 to n / 2 do
      let e = Array.unsafe_get l ((2 * i) - 1)
      and ep = Array.unsafe_get l (2 * i) in
      let t = e lsr 31 in
      if (if t < len then Array.unsafe_get rc t else 0) < ep then begin
        Array.unsafe_set l (!j + 1) e;
        Array.unsafe_set l (!j + 2) ep;
        j := !j + 2
      end
    done;
    Array.unsafe_set l 0 !j;
    (n - !j) / 2

  let stats o =
    ( [ ("tasks", o.n_tasks); ("clock_merges", o.n_merges);
        ("scan_entries", o.n_scan_entries) ],
      [ ("clocks_freed", o.n_clocks_freed) ] )
end

include Espbags.Shadow.Make (Order)
