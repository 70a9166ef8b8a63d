(* serve-mix: a `tdrepair serve` daemon (one worker domain) driven by this
   process over 2 connections in a closed loop: each connection sends its
   next job as soon as the previous reply arrives.  Jobs are `repair` and
   `detect` requests on small generated programs (Progen seeds derived
   from the workload seed), so protocol, queue, cache and worker overhead
   dominate; it is the only workload that measures `serve` and the cache
   key.  Half the jobs repeat a job sent earlier in the same pass, so
   cache hits run beside misses.  Each pass tags its sources with a
   comment naming the pass: the programs are the same, the cache keys new,
   so every pass sees the same hit/miss mix. *)

module H = Harness
module J = Obs.Json

(* One worker, not two: Mhj.Ast mints statement and block ids from plain
   global counters, and two worker domains compiling at once can hand
   out an id twice, which shows as a wrong repair (a spurious finish) in
   about one job in ten thousand.  The oracle below catches it; with one
   worker it cannot happen. *)
let workers = 1
let n_programs = 128

(* Generated programs with more MRW races than this are skipped: race
   counts range up to ~10^5, and the few programs at that end would
   dominate a pass and make its time depend on the seed. *)
let max_races = 1000

type program = {
  src : string;
  op : string;  (** "repair" or "detect" *)
  expected : J.t;  (** the reply's "program" (repair) or "races" (detect) *)
  inproc_ms : float;  (** the same job run in this process, compile included *)
}

let races prog =
  let det, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  List.length (Repair.Isolate.suppress prog (Espbags.Detector.races det))

let in_process op src =
  let run () =
    let prog = Mhj.Front.compile src in
    if op = "repair" then begin
      let r = Repair.Driver.repair prog in
      if r.Repair.Driver.converged && r.degradations = [] then
        Some (J.Str (Mhj.Pretty.program_to_string r.program))
      else None
    end
    else Some (J.Int (races prog))
  in
  match H.time run with
  | Some v, dt -> Some (v, 1e3 *. dt)
  | None, _ -> None
  | exception _ -> None

let generate ~seed =
  let compile_s = ref 0. in
  let rec go k acc n =
    if n = n_programs then (List.rev acc, !compile_s)
    else
      let src = Benchsuite.Progen.generate ~seed:((seed * 1_000_003) + k) () in
      let fits =
        match H.time (fun () -> Mhj.Front.compile src) with
        | prog, dt ->
            compile_s := !compile_s +. dt;
            races prog <= max_races
        | exception _ -> false
      in
      let op = if n mod 2 = 0 then "repair" else "detect" in
      match if fits then in_process op src else None with
      | Some (expected, inproc_ms) ->
          go (k + 1)
            ({ src; op; expected; inproc_ms } :: acc)
            (n + 1)
      | None -> go (k + 1) acc n
  in
  go 0 [] 0

(* ------------------------------------------------------------------ *)
(* Daemon process                                                      *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let reap_within pid seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap_within d.pid 5.);
  (try Sys.remove d.sock with Sys_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* A crash or failed check anywhere must not leave a daemon behind. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawned = ref 0

(* Spawn a daemon in the temporary directory (relative socket path, so the
   checkout's path length never matters) and wait until it accepts. *)
let spawn () =
  incr spawned;
  let sock = Fmt.str "serve-%d-%d.sock" (Unix.getpid ()) !spawned in
  let log =
    Unix.openfile (sock ^ ".log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process !H.tdrepair
      [|
        !H.tdrepair; "serve"; "--socket"; sock; "--workers";
        string_of_int workers;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; sock } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match connect sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline then
          failwith "serve-mix: daemon did not start listening within 20 s";
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  d

let peak_rss_mb d =
  let ic = open_in (Fmt.str "/proc/%d/status" d.pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let shutdown d =
  (try
     let c = Serve.Client.of_fd (connect d.sock) in
     Serve.Client.send_json c (J.Obj [ ("op", J.Str "shutdown") ]);
     Serve.Client.close c
   with Unix.Unix_error _ -> ());
  if reap_within d.pid 10. then begin
    live := List.filter (fun x -> x.pid <> d.pid) !live;
    try Sys.remove (d.sock ^ ".log") with Sys_error _ -> ()
  end
  else kill d

(* ------------------------------------------------------------------ *)
(* Closed-loop load generator                                          *)
(* ------------------------------------------------------------------ *)

type job_result = {
  latency_ms : float;
  cached : bool;
  attempts : int;
  miss_inproc_ms : float option;  (** in-process time, for misses *)
}

(* The pass's job order, as program indices: every program once as a
   fresh job, each repeated three jobs later. *)
let schedule n =
  let lag = 3 in
  List.concat
    (List.init (n + lag) (fun k ->
         (if k < n then [ k ] else []) @ if k >= lag then [ k - lag ] else []))
  |> Array.of_list

let setup ~seed =
  if Sys.getcwd () <> !H.tmp_dir then Sys.chdir !H.tmp_dir;
  let programs, compile_s = generate ~seed in
  let programs = Array.of_list programs in
  let d = spawn () in
  let conns =
    Array.init 2 (fun _ ->
        let fd = connect d.sock in
        (fd, Serve.Client.of_fd fd))
  in
  let jobs = schedule (Array.length programs) in
  let results = ref [] in
  let pass_no = ref 0 in
  let pass ~full:_ =
    incr pass_no;
    let tag = Fmt.str "\n// pass %d\n" !pass_no in
    let first_report = Hashtbl.create 64 in
    let busy = Array.make 2 None in
    let next = ref 0 and completed = ref 0 in
    let send c =
      let k = !next in
      incr next;
      let p = programs.(jobs.(k)) in
      let id = Fmt.str "%d.%d" !pass_no k in
      Serve.Client.send_json (snd conns.(c))
        (J.Obj
           [ ("op", J.Str p.op); ("id", J.Str id); ("src", J.Str (p.src ^ tag)) ]);
      busy.(c) <- Some (k, id, H.now ())
    in
    let receive c =
      match busy.(c) with
      | None -> ()
      | Some (k, id, t0) ->
          let line = Serve.Client.recv (snd conns.(c)) in
          let t1 = H.now () in
          busy.(c) <- None;
          incr completed;
          let p = programs.(jobs.(k)) in
          let latency_ms = 1e3 *. H.secs t0 t1 in
          H.sample_ms ~input:id latency_ms;
          H.child ~input:id ~name:"serve.job" ~start_ns:t0 ~end_ns:t1 ();
          let reply = Option.map J.of_string line in
          let field k = Option.bind reply (J.member k) in
          let report = field "report" in
          let cached = field "cached" = Some (J.Bool true) in
          let attempts =
            match field "attempts" with Some (J.Int n) -> n | _ -> 0
          in
          let key = jobs.(k) in
          (* replies for one program in one pass, cached or recomputed,
             are byte-identical to the first one received *)
          let same_as_first =
            match (report, Hashtbl.find_opt first_report key) with
            | Some r, Some first -> J.to_string r = first
            | Some r, None ->
                Hashtbl.replace first_report key (J.to_string r);
                true
            | None, _ -> false
          in
          let answer =
            Option.bind report
              (J.member (if p.op = "repair" then "program" else "races"))
          in
          H.check ~input:id
            (field "id" = Some (J.Str id)
            && field "status" = Some (J.Str "ok")
            && answer = Some p.expected && same_as_first)
            (Fmt.str
               "%s reply (cached %b) is not ok, differs from the in-process \
                result, or differs from the first reply: %s"
               p.op cached
               (Option.value ~default:"<none>" line));
          results :=
            {
              latency_ms;
              cached;
              attempts;
              miss_inproc_ms = (if cached then None else Some p.inproc_ms);
            }
            :: !results
    in
    let t0 = H.now () in
    Array.iteri (fun c _ -> if !next < Array.length jobs then send c) conns;
    while !completed < Array.length jobs do
      let waiting =
        List.filter_map
          (fun c -> if busy.(c) <> None then Some (fst conns.(c)) else None)
          [ 0; 1 ]
      in
      let ready, _, _ = Unix.select waiting [] [] 60. in
      if ready = [] then failwith "serve-mix: no reply within 60 s";
      Array.iteri
        (fun c (fd, _) ->
          if List.mem fd ready then begin
            receive c;
            if !next < Array.length jobs then send c
          end)
        conns
    done;
    H.secs t0 (H.now ())
  in
  let measured () =
    (* the warm-up pass is the oldest; drop its jobs *)
    let n = List.length !results - Array.length jobs in
    List.filteri (fun i _ -> i < n) !results
  in
  let values () =
    let rs = measured () in
    let hits = List.filter (fun r -> r.cached) rs in
    let misses = List.filter (fun r -> not r.cached) rs in
    let p50 rs = H.median (List.map (fun r -> r.latency_ms) rs) in
    let n = float_of_int (List.length rs) in
    [
      ("mhj.compile_s", compile_s);
      ("serve.cache_hit_ratio", float_of_int (List.length hits) /. n);
      ( "serve.attempts_per_job",
        float_of_int (List.fold_left (fun a r -> a + r.attempts) 0 rs) /. n );
    ]
    @ (if hits = [] then [] else [ ("serve.hit_p50_ms", p50 hits) ])
    @ if misses = [] then [] else [ ("serve.miss_p50_ms", p50 misses) ]
  in
  (* Overhead of serving a miss over running it in process: reported only
     when at least three quarters of the misses show a positive overhead,
     since the in-process time is a single sample per program. *)
  let derived () =
    let d =
      List.filter_map
        (fun r -> Option.map (fun t -> r.latency_ms -. t) r.miss_inproc_ms)
        (measured ())
    in
    [
      ( "serve.overhead_ms",
        if List.length d >= 4 && H.quantile d 0.25 > 0. then Ok (H.median d)
        else
          Error
            "miss latency minus in-process time is not positive for three \
             quarters of the misses" );
    ]
  in
  let rss = ref 0. in
  let teardown () =
    rss := peak_rss_mb d;
    Array.iter (fun (_, c) -> Serve.Client.close c) conns;
    shutdown d
  in
  {
    H.pass;
    probe = ignore;
    values;
    derived;
    peak_rss_mb = (fun () -> !rss);
    teardown;
  }
