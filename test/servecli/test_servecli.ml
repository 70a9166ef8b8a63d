(* End-to-end tests for [tdrepair serve]: a real daemon process driven
   over its Unix socket with [Serve.Client].

   Covers the golden request/reply transcripts (happy path, malformed
   frame, oversized frame, overload shed, cancel, health), graceful
   SIGTERM drain, and the multi-client soak: TDR_SOAK_JOBS mixed jobs
   under injected faults — including forced worker kills — asserting
   the daemon never dies, every job reaches exactly one terminal
   status, respawned workers keep draining the queue, and shutdown is
   clean.  `dune runtest` uses a small default job count; the @ci rule
   sets TDR_SOAK_JOBS=200. *)

module J = Obs.Json
module C = Serve.Client

let here = Filename.dirname Sys.executable_name
let binary = Filename.concat here "../../bin/tdrepair.exe"

let soak_jobs =
  match Option.bind (Sys.getenv_opt "TDR_SOAK_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 60

let racy_src =
  "def main() {\n  val a: int[] = new int[4];\n  async { a[0] = 1; }\n\
  \  a[0] = 2;\n  async { a[1] = 3; }\n  a[1] = 4;\n  print(a[0] + a[1]);\n}\n"

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string; log : string }

let start_daemon ?(args = []) () =
  let sock = Filename.temp_file "tdr_serve" ".sock" in
  Sys.remove sock;
  let log = Filename.temp_file "tdr_serve" ".log" in
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let argv = [ binary; "serve"; "--socket"; sock ] @ args in
  let pid =
    Unix.create_process binary (Array.of_list argv) Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  (* the socket file appears at bind, a moment before the daemon
     listens: it is up once a connection is accepted *)
  let listening () =
    Sys.file_exists sock
    &&
    match C.connect sock with
    | c ->
        C.close c;
        true
    | exception Unix.Unix_error _ -> false
  in
  let rec wait n =
    if listening () then ()
    else if n = 0 then
      Alcotest.failf "daemon did not come up; log:\n%s" (read_file log)
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 200;
  { pid; sock; log }

(* Wait for exit with a bounded clock; never leaves a daemon behind. *)
let wait_exit ?(timeout_s = 30.) d =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid);
          Alcotest.failf "daemon did not exit within %.0fs; log:\n%s"
            timeout_s (read_file d.log)
        end
        else begin
          Unix.sleepf 0.02;
          go ()
        end
    | _, status -> status
  in
  go ()

(* ECHILD means the daemon was already reaped by [wait_exit]. *)
let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

let stop_daemon d =
  if alive d then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    try ignore (wait_exit d) with Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  end

let with_daemon ?args f =
  let d = start_daemon ?args () in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Request builders and reply accessors                                *)
(* ------------------------------------------------------------------ *)

let job_req ?(op = "repair") ?(flags = []) ~id src =
  J.to_string
    (J.Obj
       ([ ("op", J.Str op); ("id", J.Str id); ("src", J.Str src) ]
       @ if flags = [] then [] else [ ("flags", J.Obj flags) ]))

let field key reply =
  match J.member key (J.of_string reply) with
  | Some v -> v
  | None -> Alcotest.failf "reply %s lacks %S" reply key

let str_field key reply =
  match field key reply with
  | J.Str s -> s
  | _ -> Alcotest.failf "reply %s: %S is not a string" reply key

let recv_ok c =
  match C.recv c with
  | Some line -> line
  | None -> Alcotest.fail "daemon closed the connection unexpectedly"

(* ------------------------------------------------------------------ *)
(* Golden transcripts                                                  *)
(* ------------------------------------------------------------------ *)

let test_happy_path () =
  with_daemon ~args:[ "--workers"; "2" ] @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* health *)
  let h = Option.get (C.request c {|{"op":"health"}|}) in
  Alcotest.(check string) "health ok" "ok" (str_field "status" h);
  Alcotest.(check string) "health op" "health" (str_field "op" h);
  (* repair job *)
  C.send c (job_req ~id:"j1" racy_src);
  let r = recv_ok c in
  Alcotest.(check string) "id echoed" "j1" (str_field "id" r);
  Alcotest.(check string) "repair ok" "ok" (str_field "status" r);
  Alcotest.(check bool) "report present" true
    (J.member "report" (J.of_string r) <> None);
  (* detect job *)
  C.send c (job_req ~op:"detect" ~id:"j2" racy_src);
  let r = recv_ok c in
  Alcotest.(check string) "detect ok" "ok" (str_field "status" r);
  (match J.member "races" (field "report" r) with
  | Some (J.Int n) -> Alcotest.(check bool) "races found" true (n > 0)
  | _ -> Alcotest.fail "detect report lacks races");
  (* lint job *)
  C.send c (job_req ~op:"lint" ~id:"j3" racy_src);
  let r = recv_ok c in
  Alcotest.(check string) "lint ok" "ok" (str_field "status" r);
  (* shutdown drains *)
  let r = Option.get (C.request c {|{"op":"shutdown"}|}) in
  Alcotest.(check string) "draining" "draining" (str_field "status" r);
  let status = wait_exit d in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0)

let test_malformed_frame_conn_survives () =
  with_daemon @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let r = Option.get (C.request c "{this is not json") in
  Alcotest.(check string) "typed error" "malformed-frame"
    (str_field "error" r);
  let r = Option.get (C.request c "[1,2,3]") in
  Alcotest.(check string) "non-object typed" "malformed-frame"
    (str_field "error" r);
  let r = Option.get (C.request c {|{"op":"frobnicate"}|}) in
  Alcotest.(check string) "bad request typed" "bad-request"
    (str_field "error" r);
  (* a job whose options no run can honour is refused, not admitted *)
  let r =
    Option.get
      (C.request c
         {|{"op":"repair","id":"v","src":"def main() {}","flags":{"strategy":"tournament","static_verify":true}}|})
  in
  Alcotest.(check string) "unhonourable options refused" "bad-request"
    (str_field "error" r);
  (* the SAME connection still serves well-formed requests *)
  let h = Option.get (C.request c {|{"op":"health"}|}) in
  Alcotest.(check string) "conn survived" "ok" (str_field "status" h)

let test_oversized_frame_closes_conn () =
  with_daemon ~args:[ "--max-frame"; "256" ] @@ fun d ->
  let c = C.connect d.sock in
  let big = String.make 1000 'x' in
  let r = Option.get (C.request c big) in
  Alcotest.(check string) "typed oversize" "oversized-frame"
    (str_field "error" r);
  (match field "limit" r with
  | J.Int n -> Alcotest.(check int) "limit echoed" 256 n
  | _ -> Alcotest.fail "limit not an int");
  Alcotest.(check bool) "connection closed" true (C.recv c = None);
  C.close c;
  (* the daemon itself is unharmed *)
  let c2 = C.connect d.sock in
  let h = Option.get (C.request c2 {|{"op":"health"}|}) in
  Alcotest.(check string) "daemon alive" "ok" (str_field "status" h);
  C.close c2

(* [tdrepair call ARGS] against the daemon: exit code and output. *)
let call d args =
  let out = Filename.temp_file "tdr_call" ".out" in
  let cmd =
    Fmt.str "%s call --socket %s %s > %s 2>&1" (Filename.quote binary)
      (Filename.quote d.sock)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (code, text)

(* call exits 1 on any reply that is not ok, degraded or draining: an
   oversized-frame error carries no status at all. *)
let test_call_error_reply () =
  with_daemon ~args:[ "--max-frame"; "64" ] @@ fun d ->
  let src = Filename.temp_file "tdr_call" ".mhj" in
  Out_channel.with_open_bin src (fun oc -> output_string oc racy_src);
  let code, out = call d [ src ] in
  Sys.remove src;
  Alcotest.(check bool) "reply printed" true
    (contains ~affix:"oversized-frame" out);
  Alcotest.(check int) "error reply exits 1" 1 code;
  let code, out = call d [ "--health" ] in
  Alcotest.(check bool) "health printed" true (contains ~affix:"\"ok\"" out);
  Alcotest.(check int) "health exits 0" 0 code

let slow_flags ms =
  [
    ("faults", J.List [ J.Str (Fmt.str "slow_stage:%d" ms) ]);
    ("timeout_ms", J.Int 30_000);
  ]

let test_overload_shed () =
  with_daemon ~args:[ "--workers"; "1"; "--queue"; "1" ] @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let n = 6 in
  for i = 1 to n do
    C.send c (job_req ~id:(Fmt.str "s%d" i) ~flags:(slow_flags 150) racy_src)
  done;
  let replies = List.init n (fun _ -> recv_ok c) in
  let by_status s =
    List.length (List.filter (fun r -> str_field "status" r = s) replies)
  in
  Alcotest.(check int) "every job got exactly one terminal reply" n
    (List.length replies);
  Alcotest.(check bool) "some jobs shed" true (by_status "overloaded" >= 1);
  Alcotest.(check bool) "admitted jobs completed" true (by_status "ok" >= 1);
  Alcotest.(check int) "no other statuses" n
    (by_status "overloaded" + by_status "ok");
  (* each id answered exactly once *)
  let ids = List.sort compare (List.map (str_field "id") replies) in
  Alcotest.(check (list string)) "ids unique"
    (List.sort compare (List.init n (fun i -> Fmt.str "s%d" (i + 1))))
    ids

let test_cancel () =
  with_daemon ~args:[ "--workers"; "1" ] @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* occupy the single worker, then cancel a queued job *)
  C.send c (job_req ~id:"busy" ~flags:(slow_flags 300) racy_src);
  Unix.sleepf 0.1;
  C.send c (job_req ~id:"victim" racy_src);
  Unix.sleepf 0.05;
  let r = Option.get (C.request c {|{"op":"cancel","id":"victim"}|}) in
  Alcotest.(check string) "cancelled" "cancelled" (str_field "status" r);
  Alcotest.(check string) "victim id" "victim" (str_field "id" r);
  (* cancelling it again is a typed error *)
  let r = Option.get (C.request c {|{"op":"cancel","id":"victim"}|}) in
  Alcotest.(check string) "double cancel rejected" "bad-request"
    (str_field "error" r);
  (* the busy job still reaches its own terminal reply *)
  let r = recv_ok c in
  Alcotest.(check string) "busy terminal" "busy" (str_field "id" r);
  Alcotest.(check string) "busy ok" "ok" (str_field "status" r)

let test_health_shape () =
  with_daemon ~args:[ "--workers"; "3"; "--queue"; "7" ] @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (Option.get (C.request c (job_req ~id:"h1" racy_src)));
  let h = Option.get (C.request c {|{"op":"health"}|}) in
  let j = J.of_string h in
  let int_field k =
    match J.member k j with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "health lacks int %S in %s" k h
  in
  Alcotest.(check int) "queue capacity" 7 (int_field "queue_capacity");
  Alcotest.(check bool) "uptime counted" true (int_field "uptime_ms" >= 0);
  (match J.member "workers" j with
  | Some (J.List ws) -> Alcotest.(check int) "3 worker states" 3 (List.length ws)
  | _ -> Alcotest.fail "health lacks workers");
  (match J.member "metrics" j with
  | Some (J.Obj kvs) ->
      Alcotest.(check bool) "metrics registry embedded" true
        (List.mem_assoc "serve.jobs_admitted" kvs
        && List.mem_assoc "serve.jobs_done" kvs)
  | _ -> Alcotest.fail "health lacks metrics");
  Alcotest.(check bool) "job counted" true
    (int_field "cache_misses" + int_field "cache_hits" >= 1)

let test_cached_reply_byte_identical () =
  with_daemon @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let r1 = Option.get (C.request c (job_req ~id:"c1" racy_src)) in
  let r2 = Option.get (C.request c (job_req ~id:"c1" racy_src)) in
  Alcotest.(check bool) "first computed" true
    (contains ~affix:{|"cached": false|} r1);
  Alcotest.(check bool) "second cached" true
    (contains ~affix:{|"cached": true|} r2);
  (* identical program+flags => byte-identical report *)
  Alcotest.(check string) "report bytes equal"
    (J.to_string (field "report" r1))
    (J.to_string (field "report" r2))

let test_sigterm_drains_inflight () =
  with_daemon ~args:[ "--workers"; "1" ] @@ fun d ->
  let c = C.connect d.sock in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  C.send c (job_req ~id:"inflight" ~flags:(slow_flags 400) racy_src);
  Unix.sleepf 0.1;
  Unix.kill d.pid Sys.sigterm;
  (* the in-flight job must still get its terminal reply before exit *)
  let r = recv_ok c in
  Alcotest.(check string) "in-flight drained" "inflight" (str_field "id" r);
  Alcotest.(check string) "drained ok" "ok" (str_field "status" r);
  let status = wait_exit d in
  Alcotest.(check bool) "clean exit" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists d.sock)

(* ------------------------------------------------------------------ *)
(* Soak: many clients, mixed jobs, injected faults, forced kills       *)
(* ------------------------------------------------------------------ *)

let soak_flags seed =
  (* deterministic fault mix: clean, transient, slow, crashy *)
  match seed mod 8 with
  | 0 -> [ ("faults", J.List [ J.Str "detector_abort" ]) ]
  | 1 -> [ ("faults", J.List [ J.Str "interp_trap:60" ]) ]
  | 2 ->
      [
        ("faults", J.List [ J.Str "slow_stage:30" ]);
        ("timeout_ms", J.Int 10_000);
      ]
  | 3 when seed = 3 ->
      (* exactly one forced worker kill in the default run *)
      [ ("faults", J.List [ J.Str "worker_crash" ]) ]
  | 4 -> [ ("timeout_ms", J.Int 10_000) ]
  | 5 -> [ ("trace", J.Bool true) ]
  | _ -> []

let soak_op seed =
  match seed mod 3 with 0 -> "detect" | 1 -> "repair" | _ -> "lint"

let test_soak () =
  with_daemon
    ~args:
      [ "--workers"; "3"; "--queue"; "64"; "--hard-watchdog-ms"; "20000" ]
  @@ fun d ->
  let n_clients = 4 in
  let clients = List.init n_clients (fun _ -> C.connect d.sock) in
  Fun.protect ~finally:(fun () -> List.iter C.close clients) @@ fun () ->
  let per_client = (soak_jobs + n_clients - 1) / n_clients in
  let expected = Hashtbl.create 64 in
  (* submit round-robin from every client, reading replies as we go so
     socket buffers never fill *)
  List.iteri
    (fun ci c ->
      for k = 0 to per_client - 1 do
        let seed = (ci * per_client) + k in
        let id = Fmt.str "soak-%d" seed in
        Hashtbl.replace expected id ();
        (* repeat one program often so the cache sees hits; vary others *)
        let src =
          if seed mod 4 = 0 then racy_src
          else Fmt.str "def main() {\n  val a: int[] = new int[%d];\n  \
                        async { a[0] = %d; }\n  a[0] = 1;\n  print(a[0]);\n}\n"
                 (2 + (seed mod 5)) seed
        in
        C.send c
          (job_req ~op:(soak_op seed) ~id ~flags:(soak_flags seed) src)
      done)
    clients;
  (* collect every terminal reply, per client *)
  let statuses = Hashtbl.create 64 in
  List.iter
    (fun c ->
      for _ = 1 to per_client do
        let r = recv_ok c in
        let id = str_field "id" r in
        let st = str_field "status" r in
        (match Hashtbl.find_opt statuses id with
        | Some prev ->
            Alcotest.failf "job %s got TWO terminal replies (%s then %s)" id
              prev st
        | None -> Hashtbl.replace statuses id st);
        match st with
        | "ok" | "degraded" | "failed" | "overloaded" -> ()
        | other -> Alcotest.failf "job %s: unexpected status %s" id other
      done)
    clients;
  Alcotest.(check int) "every job reached exactly one terminal status"
    (Hashtbl.length expected) (Hashtbl.length statuses);
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem statuses id) then
        Alcotest.failf "job %s never answered" id)
    expected;
  (* the daemon survived the faults, the killed worker was respawned,
     and the pool kept draining *)
  Alcotest.(check bool) "daemon still alive" true (alive d);
  let c = C.connect d.sock in
  let h = Option.get (C.request c {|{"op":"health"}|}) in
  C.close c;
  Alcotest.(check string) "healthy after soak" "ok" (str_field "status" h);
  let int_field k =
    match J.member k (J.of_string h) with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "health lacks %S" k
  in
  Alcotest.(check bool) "worker kill respawned" true
    (int_field "respawns" >= 1);
  Alcotest.(check bool) "ok jobs flowed after the kill" true
    (int_field "crashes" >= 1);
  (* clean shutdown after the storm *)
  let c = C.connect d.sock in
  ignore (C.request c {|{"op":"shutdown"}|});
  C.close c;
  let status = wait_exit d in
  Alcotest.(check bool) "clean drain" true (status = Unix.WEXITED 0)

let () =
  Alcotest.run "servecli"
    [
      ( "transcripts",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "malformed frame: conn survives" `Quick
            test_malformed_frame_conn_survives;
          Alcotest.test_case "oversized frame: conn closed" `Quick
            test_oversized_frame_closes_conn;
          Alcotest.test_case "call exits 1 on an error reply" `Quick
            test_call_error_reply;
          Alcotest.test_case "overload shed" `Quick test_overload_shed;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "health shape" `Quick test_health_shape;
          Alcotest.test_case "cached reply byte-identical" `Quick
            test_cached_reply_byte_identical;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "sigterm drains in-flight" `Quick
            test_sigterm_drains_inflight;
        ] );
      ( "soak",
        [ Alcotest.test_case (Fmt.str "%d mixed jobs" soak_jobs) `Slow
            test_soak ] );
    ]
