(* See engine.mli: the Fuzz and Domains schedulers of the shared
   evaluator (Rt.Eval). *)

open Mhj

exception Abort
(* internal: unwind a task after another task poisoned the run *)

type mode = Fuzz of { seed : int } | Domains of { n : int; seed : int }

type policy = { inline_pct : int; yield_pct : int }

let fuzz_policy = { inline_pct = 45; yield_pct = 10 }

let domains_policy = { inline_pct = 0; yield_pct = 0 }

type sched_stats =
  | Fuzz_stats of { n_inlined : int; n_pooled : int; n_yields : int }
  | Domains_stats of { n_steals : int; n_deque_grows : int }

type stats = {
  n_tasks : int;
  n_fuel_batches : int;
  sched : sched_stats;
}

let add_stats a b =
  let sched =
    match (a.sched, b.sched) with
    | ( Fuzz_stats { n_inlined = i1; n_pooled = p1; n_yields = y1 },
        Fuzz_stats { n_inlined = i2; n_pooled = p2; n_yields = y2 } ) ->
        Fuzz_stats
          { n_inlined = i1 + i2; n_pooled = p1 + p2; n_yields = y1 + y2 }
    | ( Domains_stats { n_steals = s1; n_deque_grows = g1 },
        Domains_stats { n_steals = s2; n_deque_grows = g2 } ) ->
        Domains_stats { n_steals = s1 + s2; n_deque_grows = g1 + g2 }
    | _ -> invalid_arg "Par.Engine.add_stats: mixed modes"
  in
  {
    n_tasks = a.n_tasks + b.n_tasks;
    n_fuel_batches = a.n_fuel_batches + b.n_fuel_batches;
    sched;
  }

let stats_counters s =
  let common =
    [ ("engine.tasks", s.n_tasks); ("engine.fuel_batches", s.n_fuel_batches) ]
  in
  match s.sched with
  | Fuzz_stats { n_inlined; n_pooled; n_yields } ->
      common
      @ [
          ("engine.inlined", n_inlined);
          ("engine.pooled", n_pooled);
          ("engine.yields", n_yields);
        ]
  | Domains_stats { n_steals; n_deque_grows } ->
      common
      @ [
          ("engine.steals", n_steals); ("engine.deque_grows", n_deque_grows);
        ]

type result = {
  output : string;
  globals : (string * Rt.Value.t) list;
  digest : string;
  work : int;
  wall_s : float;
  n_domains : int;
  stats : stats;
}

type finish = { pending : int Atomic.t }

type task = {
  t_run : tstate -> Rt.Eval.frame -> unit;  (** the body block's code *)
  t_env : Rt.Eval.frame;  (** copy of the spawner's frame *)
  t_fin : finish;
}

and worker = {
  id : int;
  deque : task Deque.t;
  rng : Tdrutil.Prng.t;
  mutable work : int;  (** cost units charged by this worker *)
  mutable batch : int;  (** units since the last slow-path flush *)
  mutable pace_debt_ns : float;  (** pacing debt not yet slept off *)
  (* Stats below are owner-written plain fields, summed after the joins;
     the Fuzz trio is only meaningful on the single Fuzz worker. *)
  mutable n_batches : int;  (** slow-path fuel flushes *)
  mutable n_inlined : int;
  mutable n_pooled : int;
  mutable n_yields : int;
}

and engine = {
  watchdog : Rt.Watchdog.state;  (** the calling domain's, polled by all *)
  fuel : int Atomic.t;
  aid : int Atomic.t;
  buf : Buffer.t;
  buf_mu : Mutex.t;
  cas_mu : Mutex.t;  (** serializes the [cas] builtin *)
  iso_mu : Mutex.t;  (** serializes [isolated] sections (Domains mode) *)
  poison : exn option Atomic.t;  (** first exception wins; aborts the run *)
  finished : bool Atomic.t;  (** tells idle workers to exit *)
  pace_ns : int;  (** nanoseconds of sleep per cost unit (0 = none) *)
  batch_limit : int;  (** slow-path flush granularity, in cost units *)
  policy : policy;
  is_fuzz : bool;
  workers : worker array;
  pool : task Tdrutil.Vec.t;
      (** Fuzz mode's deferred tasks, taken at PRNG-chosen indices *)
  n_tasks : int Atomic.t;
  n_steals : int Atomic.t;
}

and tstate = {
  eng : engine;
  w : worker;  (** the worker currently executing this task *)
  mutable fin : finish;  (** innermost enclosing finish *)
  mutable quiet : bool;  (** global-initializer mode: fuel but no work *)
  mutable atomic : int;  (** [isolated] nesting depth: no yields inside *)
}

(* ------------------------------------------------------------------ *)
(* Cost, fuel, pacing, poison                                          *)
(* ------------------------------------------------------------------ *)

let poison_with eng e =
  ignore (Atomic.compare_and_set eng.poison None (Some e))

let poisoned eng = Atomic.get eng.poison <> None

(* Flush the per-worker batch: settle fuel globally, poll the watchdog,
   check for poison, and sleep off accumulated pacing debt.  Oversleep
   (the common case on a loaded machine) is credited against future
   debt, so pacing self-corrects instead of drifting. *)
let slow_path st =
  let eng = st.eng and w = st.w in
  let b = w.batch in
  w.batch <- 0;
  w.n_batches <- w.n_batches + 1;
  let before = Atomic.fetch_and_add eng.fuel (-b) in
  if before - b < 0 then begin
    poison_with eng Rt.Eval.Out_of_fuel;
    raise Rt.Eval.Out_of_fuel
  end;
  Rt.Watchdog.poll eng.watchdog;
  if poisoned eng then raise Abort;
  if eng.pace_ns > 0 && (not st.quiet) && w.pace_debt_ns >= 300_000. then begin
    let t0 = Unix.gettimeofday () in
    Unix.sleepf (w.pace_debt_ns *. 1e-9);
    let slept_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    w.pace_debt_ns <- w.pace_debt_ns -. slept_ns
  end

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Scheduling primitives                                               *)
(* ------------------------------------------------------------------ *)

(* Pop own deque, else steal from a PRNG-chosen victim (scanning all
   others from a random start so a lone busy victim is always found). *)
let try_get eng (w : worker) : task option =
  match Deque.pop w.deque with
  | Some _ as t -> t
  | None ->
      let n = Array.length eng.workers in
      if n = 1 then None
      else begin
        let start = Tdrutil.Prng.int w.rng (n - 1) in
        let rec scan k =
          if k > n - 2 then None
          else
            let v = (start + k) mod (n - 1) in
            let v = if v >= w.id then v + 1 else v in
            match Deque.steal eng.workers.(v).deque with
            | Some _ as t ->
                Atomic.incr eng.n_steals;
                t
            | None -> scan (k + 1)
        in
        scan 0
      end

let backoff_sleep failures =
  if failures < 4 then Domain.cpu_relax ()
  else Unix.sleepf (Float.min 5e-4 (2e-5 *. float_of_int failures))

(* Run [t] to completion on worker [w].  Never raises: failures poison
   the engine; the pending count is always decremented so joins cannot
   hang. *)
let run_task eng (w : worker) (t : task) : unit =
  let st = { eng; w; fin = t.t_fin; quiet = false; atomic = 0 } in
  (try t.t_run st t.t_env with
  | Abort -> ()
  | Rt.Eval.Return_v _ ->
      (* the typechecker rejects [return] crossing an async boundary *)
      ()
  | e -> poison_with eng e);
  ignore (Atomic.fetch_and_add t.t_fin.pending (-1))

let run_pooled st =
  let eng = st.eng in
  let n = Tdrutil.Vec.length eng.pool in
  run_task eng st.w (Tdrutil.Vec.swap_remove eng.pool (Tdrutil.Prng.int st.w.rng n))

let wait_fin st (fin : finish) : unit =
  let eng = st.eng in
  if eng.is_fuzz then begin
    while Atomic.get fin.pending > 0 do
      if poisoned eng then raise Abort;
      if Tdrutil.Vec.is_empty eng.pool then
        (* cannot happen: single worker, so every pending task is pooled *)
        invalid_arg "Par.Engine: pending tasks but empty pool";
      run_pooled st
    done;
    if poisoned eng then raise Abort
  end
  else begin
    let failures = ref 0 in
    while Atomic.get fin.pending > 0 && not (poisoned eng) do
      match try_get eng st.w with
      | Some t ->
          failures := 0;
          run_task eng st.w t
      | None ->
          incr failures;
          backoff_sleep !failures
    done;
    if Atomic.get fin.pending > 0 then raise Abort
  end

(* ------------------------------------------------------------------ *)
(* Evaluator hooks                                                     *)
(* ------------------------------------------------------------------ *)

module Runtime = struct
  type st = tstate

  type mark = unit

  let charge st n =
    let w = st.w in
    w.batch <- w.batch + n;
    if not st.quiet then begin
      w.work <- w.work + n;
      if st.eng.pace_ns > 0 then
        w.pace_debt_ns <- w.pace_debt_ns +. float_of_int (n * st.eng.pace_ns)
    end;
    if w.batch >= st.eng.batch_limit then slow_path st

  (* Fuzz mode only: at a statement boundary, maybe run a pooled task
     now.  This lets a deferred sibling interleave between the parent's
     statements instead of only before-all (inline) or after-all (finish
     join). *)
  let stmt st _ =
    let eng = st.eng in
    if
      eng.is_fuzz && (not st.quiet) && st.atomic = 0
      && not (Tdrutil.Vec.is_empty eng.pool)
      && Tdrutil.Prng.int st.w.rng 100 < eng.policy.yield_pct
    then begin
      st.w.n_yields <- st.w.n_yields + 1;
      run_pooled st
    end

  let global _ _ _ = ()

  let cell _ _ _ _ = ()

  let alloc st _ = 1 + Atomic.fetch_and_add st.eng.aid 1

  let print st line =
    locked st.eng.buf_mu (fun () ->
        Buffer.add_string st.eng.buf line;
        Buffer.add_char st.eng.buf '\n')

  (* Atomic here for real: concurrent claimants must serialize. *)
  let exclusive st f = locked st.eng.cas_mu f

  let enter _ _ ~sid:_ ~bid:_ = ()

  let leave _ () ~bid:_ ~idx:_ = ()

  (* The spawn snapshot: the typechecker only lets an async body read
     immutable ([val]) outer locals, so running the child on a copy of
     the spawner's frame is observationally identical to sharing it —
     and keeps every frame single-writer. *)
  let async st ~sid:_ ~bid:_ body fr =
    let eng = st.eng in
    Atomic.incr eng.n_tasks;
    Atomic.incr st.fin.pending;
    let t = { t_run = body; t_env = Array.copy fr; t_fin = st.fin } in
    (if not eng.is_fuzz then Deque.push st.w.deque t
     else if Tdrutil.Prng.int st.w.rng 100 < eng.policy.inline_pct then begin
       st.w.n_inlined <- st.w.n_inlined + 1;
       run_task eng st.w t
     end
     else begin
       st.w.n_pooled <- st.w.n_pooled + 1;
       Tdrutil.Vec.push eng.pool t
     end)

  let finish st ~sid:_ ~bid:_ body fr =
    let fin = { pending = Atomic.make 0 } in
    let saved = st.fin in
    st.fin <- fin;
    Fun.protect ~finally:(fun () -> st.fin <- saved) (fun () -> body st fr);
    wait_fin st fin

  (* Global mutual exclusion.  In Fuzz mode all tasks share one worker,
     so instead of a (self-deadlocking) lock we pin the scheduler:
     [atomic > 0] disables the statement-boundary yields, making the
     section atomic by construction. *)
  let isolated st ~sid:_ ~bid:_ body fr =
    let run () = body st fr in
    st.atomic <- st.atomic + 1;
    Fun.protect
      ~finally:(fun () -> st.atomic <- st.atomic - 1)
      (fun () -> if st.eng.is_fuzz then run () else locked st.eng.iso_mu run)
end

module E = Rt.Eval.Make (Runtime)

(* ------------------------------------------------------------------ *)
(* Worker loop and whole-program execution                             *)
(* ------------------------------------------------------------------ *)

let worker_loop eng (w : worker) =
  let failures = ref 0 in
  while not (Atomic.get eng.finished) do
    if poisoned eng then Unix.sleepf 2e-4
    else
      match try_get eng w with
      | Some t ->
          failures := 0;
          run_task eng w t
      | None ->
          incr failures;
          backoff_sleep !failures
  done

let max_domains = 128

let run ?(fuel = Rt.Interp.default_fuel) ?(pace_ns = 0) ?policy ~mode
    (prog : Ast.program) : result =
  let is_fuzz, n_domains, seed =
    match mode with
    | Fuzz { seed } -> (true, 1, seed)
    | Domains { n; _ } when n > max_domains ->
        invalid_arg
          (Fmt.str "Par.Engine.run: %d domains exceeds max_domains (%d)" n
             max_domains)
    | Domains { n; seed } -> (false, max 1 n, seed)
  in
  let code = E.compile prog in
  let policy =
    match policy with
    | Some p -> p
    | None -> if is_fuzz then fuzz_policy else domains_policy
  in
  let workers =
    Array.init n_domains (fun id ->
        {
          id;
          deque = Deque.create ();
          (* distinct, seed-derived streams per worker *)
          rng = Tdrutil.Prng.create ~seed:(seed + (31 * id));
          work = 0;
          batch = 0;
          pace_debt_ns = 0.;
          n_batches = 0;
          n_inlined = 0;
          n_pooled = 0;
          n_yields = 0;
        })
  in
  let eng =
    {
      watchdog = Rt.Watchdog.current ();
      fuel = Atomic.make fuel;
      aid = Atomic.make 0;
      buf = Buffer.create 256;
      buf_mu = Mutex.create ();
      cas_mu = Mutex.create ();
      iso_mu = Mutex.create ();
      poison = Atomic.make None;
      finished = Atomic.make false;
      pace_ns;
      batch_limit =
        (if pace_ns > 0 then max 32 (300_000 / pace_ns) else 2048);
      policy;
      is_fuzz;
      workers;
      pool = Tdrutil.Vec.create ();
      n_tasks = Atomic.make 0;
      n_steals = Atomic.make 0;
    }
  in
  let root = { pending = Atomic.make 0 } in
  let st0 = { eng; w = workers.(0); fin = root; quiet = false; atomic = 0 } in
  (* Global initializers are sequenced before every task: run them before
     any other domain exists. *)
  st0.quiet <- true;
  code.init st0;
  st0.quiet <- false;
  let t_start = Unix.gettimeofday () in
  let doms =
    Array.init (n_domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop eng workers.(i + 1)))
  in
  (try
     code.main st0;
     wait_fin st0 root
   with
  | Abort -> ()
  | e -> poison_with eng e);
  Atomic.set eng.finished true;
  Array.iter Domain.join doms;
  let wall_s = Unix.gettimeofday () -. t_start in
  (match Atomic.get eng.poison with Some e -> raise e | None -> ());
  let globals = Rt.Eval.final_globals code in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let sched =
    if is_fuzz then
      Fuzz_stats
        {
          n_inlined = sum (fun w -> w.n_inlined);
          n_pooled = sum (fun w -> w.n_pooled);
          n_yields = sum (fun w -> w.n_yields);
        }
    else
      Domains_stats
        {
          n_steals = Atomic.get eng.n_steals;
          n_deque_grows = sum (fun w -> Deque.grows w.deque);
        }
  in
  {
    output = Buffer.contents eng.buf;
    globals;
    digest = Rt.Value.digest_globals globals;
    work = sum (fun w -> w.work);
    wall_s;
    n_domains;
    stats =
      {
        n_tasks = Atomic.get eng.n_tasks;
        n_fuel_batches = sum (fun w -> w.n_batches);
        sched;
      };
  }
