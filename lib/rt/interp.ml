(* See interp.mli.  The depth-first runtime of the shared evaluator
   (Eval): its hooks build the S-DPST and deliver Monitor events. *)

open Mhj

exception Runtime_error = Eval.Runtime_error

exception Out_of_fuel = Eval.Out_of_fuel

type result = {
  output : string;  (** everything [print]ed, one line per call *)
  tree : Sdpst.Node.tree;  (** the S-DPST of the execution *)
  work : int;  (** total cost units charged (serial execution time) *)
  globals : (string * Value.t) list;
      (** final global-variable state, sorted by name — the reference the
          parallel backend's schedule-fuzzing differential checks compare
          against (digest with {!Value.digest_globals}) *)
  intern : Addr.Intern.t;
      (** the run's address interner: resolves the interned ids reported
          to the monitor back to boxed {!Addr.t}s *)
}

module Node = Sdpst.Node

type state = {
  tree : Node.tree;
  intern : Addr.Intern.t;
  monitor : Monitor.t;
  watchdog : Watchdog.state;  (** the calling domain's, read once *)
  buf : Buffer.t;
  mutable parent : Node.t;  (** the current parent node *)
  mutable prev : Node.t;  (** its last child so far, or [Node.none] *)
  mutable step : Node.t;  (** the current step, or [Node.none] *)
  mutable cost : int;  (** the current step's cost so far *)
  mutable last : int;  (** and the last statement it covered *)
  mutable bid : int;  (** block whose statements are currently executing *)
  mutable idx : int;  (** index of the current statement within [bid] *)
  mutable fuel : int;
  mutable poll_at : int;  (** fuel level of the next slow-path check *)
  mutable work : int;
  mutable aid : int;
  mutable quiet : bool;  (** global-initializer mode: cost but no steps *)
  mutable call : Node.kind;  (** the call scope last entered, and its code *)
  mutable call_code : int;
}

(* Cost units between watchdog polls. *)
let poll_units = 1024

module Runtime = struct
  type st = state

  (* The scope node; its parent is the node to restore on leave. *)
  type mark = Node.t

  let add st ~code ~sid ~body_bid =
    let n =
      Node.add_child st.tree ~parent:st.parent ~prev:st.prev ~code ~sid
        ~origin_bid:st.bid ~origin_idx:st.idx ~body_bid
    in
    st.prev <- n;
    n

  (* A step's cost and last statement accrue in [st] and go to its row
     when it ends. *)
  let ensure_step st =
    if st.step < 0 then begin
      st.step <- add st ~code:(Node.code st.tree Step) ~sid:(-1) ~body_bid:(-1);
      st.cost <- 0;
      st.last <- st.idx
    end;
    st.step

  let end_step st =
    if st.step >= 0 then Node.charge st.tree st.step st.cost ~idx:st.last;
    st.step <- Node.none

  let slow_path st =
    if st.fuel < 0 then raise Out_of_fuel;
    Watchdog.poll st.watchdog;
    st.poll_at <- max 0 (st.fuel - poll_units)

  let charge st n =
    st.fuel <- st.fuel - n;
    if st.fuel < st.poll_at then slow_path st;
    if not st.quiet then begin
      (* global-initializer (quiet) cost consumes fuel but is program
         setup, not measured execution time: [work] equals the sum of
         step costs *)
      st.work <- st.work + n;
      ignore (ensure_step st);
      st.cost <- st.cost + n;
      if st.idx > st.last then st.last <- st.idx
    end

  let stmt st k = st.idx <- k

  let global st addr kind =
    if not st.quiet then
      st.monitor.Monitor.on_access ~step:(ensure_step st) ~bid:st.bid
        ~idx:st.idx addr kind

  let cell st aid i kind =
    if not st.quiet then
      global st (Addr.Intern.cell_id st.intern ~aid ~idx:i) kind

  let alloc st len =
    st.aid <- st.aid + 1;
    Addr.Intern.register_array st.intern ~aid:st.aid ~len;
    st.aid

  let print st line =
    Buffer.add_string st.buf line;
    Buffer.add_char st.buf '\n'

  let exclusive _ f = f ()

  (* A recursion re-enters one call kind, so its code is looked up once. *)
  let code st (kind : Node.kind) =
    match kind with
    | Scope (Scall _) when kind == st.call -> st.call_code
    | Scope (Scall _) ->
        st.call <- kind;
        st.call_code <- Node.code st.tree kind;
        st.call_code
    | _ -> Node.code st.tree kind

  (* Enter a structural (async/finish/scope) node: the current step ends,
     the body runs under the new node with its own block cursor, and the
     step resumes lazily afterwards at the restored position. *)
  let enter st kind ~sid ~bid =
    end_step st;
    let node = add st ~code:(code st kind) ~sid ~body_bid:bid in
    st.parent <- node;
    st.prev <- Node.none;
    st.bid <- bid;
    node

  let leave st (node : mark) ~bid ~idx =
    end_step st;
    st.parent <- Node.parent st.tree node;
    st.prev <- node;
    st.bid <- bid;
    st.idx <- idx

  (* Async and finish nodes deliver their end event also when a [return]
     (or an error) unwinds through them. *)
  let bracket st kind ~sid ~bid ~on_begin ~on_end body fr =
    let bid0 = st.bid and idx0 = st.idx in
    let node = enter st kind ~sid ~bid in
    on_begin node;
    (match body st fr with
    | () -> on_end node
    | exception e ->
        on_end node;
        raise e);
    leave st node ~bid:bid0 ~idx:idx0

  let async st ~sid ~bid body fr =
    bracket st Node.Async ~sid ~bid ~on_begin:st.monitor.on_task_begin
      ~on_end:st.monitor.on_task_end body fr

  let finish st ~sid ~bid body fr =
    bracket st Node.Finish ~sid ~bid ~on_begin:st.monitor.on_finish_begin
      ~on_end:st.monitor.on_finish_end body fr

  (* Sequential execution is a legal schedule of the mutual exclusion, so
     the depth-first interpreter runs the body as a plain scope; races
     between isolated sections still surface in the S-DPST and are
     discharged statically (Repair.Isolate). *)
  let isolated st ~sid ~bid body fr =
    let bid0 = st.bid and idx0 = st.idx in
    let node = enter st (Node.Scope Node.Sblock) ~sid ~bid in
    body st fr;
    leave st node ~bid:bid0 ~idx:idx0
end

module E = Eval.Make (Runtime)

let default_fuel = 200_000_000

let run ?(monitor = Monitor.nop) ?(fuel = default_fuel) (prog : Ast.program) :
    result =
  let code = E.compile prog in
  let tree = Node.create_tree ~main_bid:code.main_bid in
  let intern = Addr.Intern.create () in
  (* Globals are interned up front (ids 0.. in declaration order); arrays
     claim id blocks as they are allocated, starting with any allocated by
     the global initializers themselves. *)
  Array.iter (fun g -> ignore (Addr.Intern.add_global intern g)) code.names;
  let st =
    {
      tree;
      intern;
      monitor;
      watchdog = Watchdog.current ();
      buf = Buffer.create 256;
      parent = Node.root;
      prev = Node.none;
      step = Node.none;
      cost = 0;
      last = 0;
      bid = code.main_bid;
      idx = 0;
      fuel;
      poll_at = max 0 (fuel - poll_units);
      work = 0;
      aid = 0;
      quiet = true;
      call = Node.Root;
      call_code = 0;
    }
  in
  monitor.Monitor.on_init intern tree;
  (* Global initializers run before main, outside any step: they are
     sequenced before every task, so they can never participate in a race
     and are kept out of the S-DPST (see DESIGN.md). *)
  code.init st;
  st.quiet <- false;
  (* The monitored depth-first execution is also what grows the S-DPST,
     so one span covers both; nested under "detect" when the driver runs
     this behind a detector monitor. *)
  Obs.Trace.with_span "sdpst-build" (fun () ->
      monitor.Monitor.on_task_begin Node.root;
      monitor.Monitor.on_finish_begin Node.root;
      code.main st;
      Runtime.end_step st;
      monitor.Monitor.on_finish_end Node.root;
      monitor.Monitor.on_task_end Node.root);
  {
    output = Buffer.contents st.buf;
    tree;
    work = st.work;
    globals = Eval.final_globals code;
    intern;
  }

(** Run the serial elision of [prog] (all parallel constructs erased) and
    return its result — the reference semantics for repair correctness. *)
let run_elision ?fuel (prog : Ast.program) : result =
  run ?fuel (Normalize.normalize (Elision.elide prog))
