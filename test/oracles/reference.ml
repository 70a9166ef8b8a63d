(** The seed (pre-optimization) ESP-bags detectors, kept verbatim as the
    golden oracle for the dense-shadow rewrite in {!Detector}.

    Everything deliberately preserves the original representation and its
    costs: hashtable-backed union-find bags, an [Addr.Table] shadow keyed
    by boxed addresses (reconstructed per access, as the seed interpreter
    allocated them per access), per-access [access_record] allocations,
    and the consecutive-only [push_unless_last] dedup.  Two users:

    - the differential test suite holds {!Detector}'s race multiset
      byte-identical to this implementation's over generated programs;
    - [bench detector] measures it as the before side of the before/after
      overhead numbers.

    Do not optimize this module. *)

open Espbags

(* ------------------------------------------------------------------ *)
(* Seed bags: hashtable union-find                                     *)
(* ------------------------------------------------------------------ *)

module Hbags = struct
  type mark = Sbag of int | Pbag of int

  type t = {
    parent : (int, int) Hashtbl.t;
    rank : (int, int) Hashtbl.t;
    mark : (int, mark) Hashtbl.t;
    pbag_root : (int, int) Hashtbl.t;
    mutable task_stack : int list;
    mutable finish_stack : int list;
  }

  let create () =
    {
      parent = Hashtbl.create 256;
      rank = Hashtbl.create 256;
      mark = Hashtbl.create 256;
      pbag_root = Hashtbl.create 64;
      task_stack = [];
      finish_stack = [];
    }

  let rec find t x =
    match Hashtbl.find_opt t.parent x with
    | None -> invalid_arg (Fmt.str "Reference.find: unknown task %d" x)
    | Some p ->
        if p = x then x
        else begin
          let r = find t p in
          Hashtbl.replace t.parent x r;
          r
        end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then ra
    else begin
      let ka = Hashtbl.find t.rank ra and kb = Hashtbl.find t.rank rb in
      let root, child = if ka >= kb then (ra, rb) else (rb, ra) in
      Hashtbl.replace t.parent child root;
      if ka = kb then Hashtbl.replace t.rank root (ka + 1);
      Hashtbl.remove t.mark child;
      root
    end

  let mark_of t x = Hashtbl.find t.mark (find t x)

  let in_pbag t x = match mark_of t x with Pbag _ -> true | Sbag _ -> false

  let current_task t =
    match t.task_stack with
    | task :: _ -> task
    | [] -> invalid_arg "Reference.current_task: no task executing"

  let task_begin t ~task =
    Hashtbl.replace t.parent task task;
    Hashtbl.replace t.rank task 0;
    Hashtbl.replace t.mark task (Sbag task);
    t.task_stack <- task :: t.task_stack

  let task_end t ~task =
    (match t.task_stack with
    | x :: rest when x = task -> t.task_stack <- rest
    | _ -> invalid_arg "Reference.task_end: task stack mismatch");
    match t.finish_stack with
    | [] -> ()
    | ief :: _ -> (
        let r = find t task in
        match Hashtbl.find_opt t.pbag_root ief with
        | None ->
            Hashtbl.replace t.mark r (Pbag ief);
            Hashtbl.replace t.pbag_root ief r
        | Some existing ->
            let root = union t r existing in
            Hashtbl.replace t.mark root (Pbag ief);
            Hashtbl.replace t.pbag_root ief root)

  let finish_begin t ~finish = t.finish_stack <- finish :: t.finish_stack

  let finish_end t ~finish =
    (match t.finish_stack with
    | f :: rest when f = finish -> t.finish_stack <- rest
    | _ -> invalid_arg "Reference.finish_end: finish stack mismatch");
    match Hashtbl.find_opt t.pbag_root finish with
    | None -> ()
    | Some r ->
        Hashtbl.remove t.pbag_root finish;
        let task = current_task t in
        let root = union t r (find t task) in
        Hashtbl.replace t.mark root (Sbag task)
end

(* ------------------------------------------------------------------ *)
(* Seed detectors                                                      *)
(* ------------------------------------------------------------------ *)

type access_record = { task : int; step : Sdpst.Node.t }

type srw_shadow = {
  mutable writer : access_record option;
  mutable reader : access_record option;
}

type mrw_shadow = {
  writers : access_record Tdrutil.Vec.t;
  readers : access_record Tdrutil.Vec.t;
}

type t = {
  mode : Trace.mode;
  monitor : Rt.Monitor.t;
  races : Race.t Tdrutil.Vec.t;
  mutable intern : Rt.Addr.Intern.t;
  mutable n_accesses : int;
  mutable n_locations : int;
  mutable n_skipped : int;
}

let races t = Tdrutil.Vec.to_list t.races

let race_count t = Tdrutil.Vec.length t.races

let clean t = Tdrutil.Vec.is_empty t.races

let make_srw () : t =
  let bags = Hbags.create () in
  let shadow : srw_shadow Rt.Addr.Table.t = Rt.Addr.Table.create 1024 in
  let races = Tdrutil.Vec.create () in
  let det_ref = ref None in
  let lookup addr =
    match Rt.Addr.Table.find_opt shadow addr with
    | Some s -> s
    | None ->
        let s = { writer = None; reader = None } in
        Rt.Addr.Table.add shadow addr s;
        (match !det_ref with
        | Some det -> det.n_locations <- det.n_locations + 1
        | None -> ());
        s
  in
  let tree = ref (Sdpst.Node.create_tree ~main_bid:(-1)) in
  let report ~src ~sink ~addr ~kind =
    if src <> sink then
      Tdrutil.Vec.push races (Race.make ~tree:!tree ~src ~sink ~addr ~kind)
  in
  let on_access ~step ~bid:_ ~idx:_ iaddr kind =
    (match !det_ref with
    | Some det -> det.n_accesses <- det.n_accesses + 1
    | None -> ());
    (* the seed interpreter built a boxed address per access; rebuilding it
       from the interned id keeps this implementation's cost profile *)
    let addr =
      match !det_ref with
      | Some det -> Rt.Addr.Intern.of_id det.intern iaddr
      | None -> assert false
    in
    let s = lookup addr in
    let task = Hbags.current_task bags in
    let me = { task; step } in
    match kind with
    | Rt.Monitor.Read ->
        (match s.writer with
        | Some w when Hbags.in_pbag bags w.task ->
            report ~src:w.step ~sink:step ~addr ~kind:Race.Write_read
        | _ -> ());
        (match s.reader with
        | Some r when Hbags.in_pbag bags r.task -> ()
        | _ -> s.reader <- Some me)
    | Rt.Monitor.Write ->
        (match s.writer with
        | Some w when Hbags.in_pbag bags w.task ->
            report ~src:w.step ~sink:step ~addr ~kind:Race.Write_write
        | _ -> ());
        (match s.reader with
        | Some r when Hbags.in_pbag bags r.task ->
            report ~src:r.step ~sink:step ~addr ~kind:Race.Read_write
        | _ -> ());
        s.writer <- Some me
  in
  let monitor =
    {
      Rt.Monitor.on_init =
        (fun intern t ->
          tree := t;
          match !det_ref with
          | Some det -> det.intern <- intern
          | None -> ());
      on_task_begin = (fun task -> Hbags.task_begin bags ~task);
      on_task_end = (fun task -> Hbags.task_end bags ~task);
      on_finish_begin = (fun finish -> Hbags.finish_begin bags ~finish);
      on_finish_end = (fun finish -> Hbags.finish_end bags ~finish);
      on_access;
    }
  in
  let det =
    {
      mode = Trace.Srw;
      monitor;
      races;
      intern = Rt.Addr.Intern.create ();
      n_accesses = 0;
      n_locations = 0;
      n_skipped = 0;
    }
  in
  det_ref := Some det;
  det

let make_mrw () : t =
  let bags = Hbags.create () in
  let shadow : mrw_shadow Rt.Addr.Table.t = Rt.Addr.Table.create 1024 in
  let races = Tdrutil.Vec.create () in
  let det_ref = ref None in
  let lookup addr =
    match Rt.Addr.Table.find_opt shadow addr with
    | Some s -> s
    | None ->
        let s =
          { writers = Tdrutil.Vec.create (); readers = Tdrutil.Vec.create () }
        in
        Rt.Addr.Table.add shadow addr s;
        (match !det_ref with
        | Some det -> det.n_locations <- det.n_locations + 1
        | None -> ());
        s
  in
  let tree = ref (Sdpst.Node.create_tree ~main_bid:(-1)) in
  let report ~src ~sink ~addr ~kind =
    if src <> sink then
      Tdrutil.Vec.push races (Race.make ~tree:!tree ~src ~sink ~addr ~kind)
  in
  (* Consecutive accesses by the same step are redundant: they would
     produce byte-identical race reports. *)
  let push_unless_last vec (me : access_record) =
    match Tdrutil.Vec.last vec with
    | Some r when r.step = me.step -> ()
    | _ -> Tdrutil.Vec.push vec me
  in
  let on_access ~step ~bid:_ ~idx:_ iaddr kind =
    (match !det_ref with
    | Some det -> det.n_accesses <- det.n_accesses + 1
    | None -> ());
    let addr =
      match !det_ref with
      | Some det -> Rt.Addr.Intern.of_id det.intern iaddr
      | None -> assert false
    in
    let s = lookup addr in
    let task = Hbags.current_task bags in
    let me = { task; step } in
    match kind with
    | Rt.Monitor.Read ->
        Tdrutil.Vec.iter
          (fun w ->
            if Hbags.in_pbag bags w.task then
              report ~src:w.step ~sink:step ~addr ~kind:Race.Write_read)
          s.writers;
        push_unless_last s.readers me
    | Rt.Monitor.Write ->
        Tdrutil.Vec.iter
          (fun w ->
            if Hbags.in_pbag bags w.task then
              report ~src:w.step ~sink:step ~addr ~kind:Race.Write_write)
          s.writers;
        Tdrutil.Vec.iter
          (fun r ->
            if Hbags.in_pbag bags r.task then
              report ~src:r.step ~sink:step ~addr ~kind:Race.Read_write)
          s.readers;
        push_unless_last s.writers me
  in
  let monitor =
    {
      Rt.Monitor.on_init =
        (fun intern t ->
          tree := t;
          match !det_ref with
          | Some det -> det.intern <- intern
          | None -> ());
      on_task_begin = (fun task -> Hbags.task_begin bags ~task);
      on_task_end = (fun task -> Hbags.task_end bags ~task);
      on_finish_begin = (fun finish -> Hbags.finish_begin bags ~finish);
      on_finish_end = (fun finish -> Hbags.finish_end bags ~finish);
      on_access;
    }
  in
  let det =
    {
      mode = Trace.Mrw;
      monitor;
      races;
      intern = Rt.Addr.Intern.create ();
      n_accesses = 0;
      n_locations = 0;
      n_skipped = 0;
    }
  in
  det_ref := Some det;
  det

let make = function
  | Trace.Srw -> make_srw ()
  | Trace.Mrw -> make_mrw ()

(** Seed analogue of {!Detector.detect}. *)
let detect ?fuel ?keep mode (prog : Mhj.Ast.program) : t * Rt.Interp.result =
  let det = make mode in
  let monitor =
    match keep with
    | None -> det.monitor
    | Some keep ->
        Rt.Monitor.filter
          ~keep:(fun ~bid ~idx _addr _kind -> keep ~bid ~idx)
          ~on_skip:(fun () -> det.n_skipped <- det.n_skipped + 1)
          det.monitor
  in
  let res = Rt.Interp.run ?fuel ~monitor prog in
  (det, res)
