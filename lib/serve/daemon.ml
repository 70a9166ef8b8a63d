(* See daemon.mli. *)

module J = Obs.Json
module P = Protocol

type config = {
  socket : string;
  workers : int;
  queue_capacity : int;
  max_frame : int;
  cache_capacity : int;
  retries : int;
  backoff_ms : int;
  default_timeout_ms : int option;
  hard_watchdog_ms : int;
  verbose : bool;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  (* bytes [0, scan) of [buf] hold no newline: each chunk is scanned
     once, keeping frame extraction linear in the frame size *)
  mutable scan : int;
  mutable alive : bool;
}

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable listening : bool;
  pipe_r : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  pending : (int, conn * string) Hashtbl.t;  (* seq -> reply route *)
  terminal : (int, unit) Hashtbl.t;  (* seqs already replied: exactly-once *)
  sup : Supervisor.t;
  metrics : Obs.Metrics.t;
  started_ns : int64;
  stop_flag : bool ref;
  mutable draining : bool;
}

let vlog st fmt =
  if st.cfg.verbose then Fmt.epr (fmt ^^ "@.")
  else Format.ikfprintf ignore Fmt.stderr fmt

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    Hashtbl.remove st.conns conn.fd;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let send_frame st conn json =
  if conn.alive then begin
    let s = P.frame json in
    let len = String.length s in
    let rec go off =
      if off < len then
        match Unix.write_substring conn.fd s off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
        | exception Unix.Unix_error _ -> close_conn st conn
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let health_reply st =
  let hits, misses =
    Option.value (Supervisor.cache_stats st.sup) ~default:(0, 0)
  in
  let uptime_ms =
    Int64.to_int
      (Int64.div (Int64.sub (Obs.Clock.now_ns ()) st.started_ns) 1_000_000L)
  in
  J.Obj
    [
      ("op", J.Str "health");
      ("status", J.Str (if st.draining then "draining" else "ok"));
      ("uptime_ms", J.Int uptime_ms);
      ("queue_depth", J.Int (Supervisor.queue_length st.sup));
      ("queue_capacity", J.Int (Supervisor.queue_capacity st.sup));
      ( "workers",
        J.List
          (List.map (fun s -> J.Str s) (Supervisor.worker_states st.sup)) );
      ("respawns", J.Int (Supervisor.respawns st.sup));
      ("crashes", J.Int (Supervisor.crashes st.sup));
      ("pending", J.Int (Hashtbl.length st.pending));
      ("cache_hits", J.Int hits);
      ("cache_misses", J.Int misses);
      ("metrics", Obs.Metrics.to_json st.metrics);
    ]

let begin_drain st =
  if not st.draining then begin
    st.draining <- true;
    if st.listening then begin
      st.listening <- false;
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink st.cfg.socket with Unix.Unix_error _ -> ()
    end;
    vlog st "draining: %d reply/replies outstanding" (Hashtbl.length st.pending)
  end

let handle_line st conn line =
  if String.trim line <> "" then
    match P.parse line with
    | Error e ->
        Obs.Metrics.incr st.metrics "serve.proto_errors";
        send_frame st conn (P.error_reply e)
    | Ok P.Health -> send_frame st conn (health_reply st)
    | Ok P.Shutdown ->
        send_frame st conn (J.Obj [ ("status", J.Str "draining") ]);
        begin_drain st
    | Ok (P.Cancel id) -> (
        match Supervisor.cancel st.sup id with
        | Some seq ->
            Hashtbl.replace st.terminal seq ();
            Hashtbl.remove st.pending seq;
            Obs.Metrics.incr st.metrics "serve.jobs_cancelled";
            send_frame st conn (P.job_reply ~id ~status:P.Scancelled ())
        | None ->
            send_frame st conn
              (P.error_reply
                 (P.Bad_request
                    (Fmt.str "no queued job with id %S (running jobs cannot \
                              be cancelled)" id))))
    | Ok (P.Job spec) -> (
        match P.validate spec with
        | Error e ->
            Obs.Metrics.incr st.metrics "serve.proto_errors";
            send_frame st conn (P.error_reply e)
        | Ok () when st.draining ->
            send_frame st conn
              (P.job_reply ~id:spec.P.id ~status:P.Soverloaded
                 ~error:"daemon is draining" ())
        | Ok () -> (
            match Supervisor.submit st.sup spec with
            | `Overloaded ->
                Obs.Metrics.incr st.metrics "serve.jobs_shed";
                send_frame st conn
                  (P.job_reply ~id:spec.P.id ~status:P.Soverloaded ())
            | `Accepted seq ->
                Obs.Metrics.incr st.metrics "serve.jobs_admitted";
                Hashtbl.replace st.pending seq (conn, spec.P.id)))

let oversized st conn =
  Obs.Metrics.incr st.metrics "serve.proto_errors";
  send_frame st conn (P.error_reply (P.Oversized st.cfg.max_frame));
  close_conn st conn

let find_newline buf ~from =
  let len = Buffer.length buf in
  let i = ref from in
  while !i < len && Buffer.nth buf !i <> '\n' do incr i done;
  if !i < len then Some !i else None

let process_buffer st conn =
  let rec go () =
    match find_newline conn.buf ~from:conn.scan with
    | Some i ->
        let line = Buffer.sub conn.buf 0 i in
        let rest = Buffer.sub conn.buf (i + 1) (Buffer.length conn.buf - i - 1) in
        Buffer.clear conn.buf;
        Buffer.add_string conn.buf rest;
        conn.scan <- 0;
        if String.length line > st.cfg.max_frame then oversized st conn
        else begin
          handle_line st conn line;
          if conn.alive then go ()
        end
    | None ->
        conn.scan <- Buffer.length conn.buf;
        if conn.scan > st.cfg.max_frame then oversized st conn
  in
  go ()

let on_readable st conn =
  let bytes = Bytes.create 4096 in
  match Unix.read conn.fd bytes 0 4096 with
  | 0 -> close_conn st conn
  | n ->
      Buffer.add_subbytes conn.buf bytes 0 n;
      process_buffer st conn
  | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn st conn

let accept_conn st =
  match Unix.accept st.listen_fd with
  | fd, _ ->
      Hashtbl.replace st.conns fd
        { fd; buf = Buffer.create 256; scan = 0; alive = true }
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Completions                                                         *)
(* ------------------------------------------------------------------ *)

let flush_completions st =
  List.iter
    (fun (c : Supervisor.completion) ->
      if not (Hashtbl.mem st.terminal c.seq) then begin
        Hashtbl.replace st.terminal c.seq ();
        Obs.Metrics.incr st.metrics "serve.jobs_done";
        Obs.Metrics.incr st.metrics
          ("serve.jobs_" ^ P.status_to_string c.outcome.Worker.status);
        if c.outcome.Worker.cached then
          Obs.Metrics.incr st.metrics "serve.cache_hits";
        match Hashtbl.find_opt st.pending c.seq with
        | Some (conn, id) ->
            Hashtbl.remove st.pending c.seq;
            send_frame st conn (Worker.reply ~id c.outcome)
        | None -> () (* client went away: reply dropped, job still ran *)
      end)
    (Supervisor.completions st.sup)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let metric_keys =
  [
    "serve.jobs_admitted";
    "serve.jobs_done";
    "serve.jobs_ok";
    "serve.jobs_degraded";
    "serve.jobs_failed";
    "serve.jobs_cancelled";
    "serve.jobs_shed";
    "serve.cache_hits";
    "serve.proto_errors";
  ]

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let notify () =
    try ignore (Unix.write pipe_w (Bytes.of_string "!") 0 1)
    with Unix.Unix_error _ -> ()
  in
  let stop_flag = ref false in
  let on_signal _ =
    stop_flag := true;
    notify ()
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let sup =
    Supervisor.create ~workers:cfg.workers ~queue_capacity:cfg.queue_capacity
      ~cache_capacity:cfg.cache_capacity ~retries:cfg.retries
      ~backoff_ms:cfg.backoff_ms ?default_timeout_ms:cfg.default_timeout_ms
      ~notify ()
  in
  let metrics = Obs.Metrics.create () in
  List.iter (Obs.Metrics.declare metrics) metric_keys;
  let st =
    {
      cfg;
      listen_fd;
      listening = true;
      pipe_r;
      conns = Hashtbl.create 16;
      pending = Hashtbl.create 64;
      terminal = Hashtbl.create 64;
      sup;
      metrics;
      started_ns = Obs.Clock.now_ns ();
      stop_flag;
      draining = false;
    }
  in
  Fmt.pr "tdrepair serve: listening on %s (%d worker domain(s), queue %d)@."
    cfg.socket cfg.workers cfg.queue_capacity;
  let drain_pipe () =
    let b = Bytes.create 256 in
    match Unix.read st.pipe_r b 0 256 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let finished = ref false in
  while not !finished do
    if !(st.stop_flag) then begin_drain st;
    let read_fds =
      (if st.listening then [ st.listen_fd ] else [])
      @ (st.pipe_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.conns [])
    in
    let timeout =
      float_of_int (max 10 (min 200 (cfg.hard_watchdog_ms / 4))) /. 1000.
    in
    let ready, _, _ =
      try Unix.select read_fds [] [] timeout
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = st.pipe_r then drain_pipe ()
        else if st.listening && fd = st.listen_fd then accept_conn st
        else
          match Hashtbl.find_opt st.conns fd with
          | Some conn -> on_readable st conn
          | None -> ())
      ready;
    if !(st.stop_flag) then begin_drain st;
    Supervisor.reap st.sup;
    Supervisor.check_wedged st.sup ~limit_ms:cfg.hard_watchdog_ms;
    flush_completions st;
    if
      st.draining
      && Hashtbl.length st.pending = 0
      && Supervisor.queue_length st.sup = 0
    then begin
      Supervisor.shutdown st.sup;
      flush_completions st;
      finished := true
    end
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    st.conns;
  Hashtbl.reset st.conns;
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  if st.listening then begin
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
  end;
  vlog st "shutdown complete: %d job(s) served"
    (Obs.Metrics.get st.metrics "serve.jobs_done");
  Fmt.pr "tdrepair serve: shutdown complete@."
