(* Unit tests for the lib/serve daemon internals: the bounded job
   queue, the result cache, the wire protocol, the per-job worker
   (watchdog, retries, caching) and the supervisor (crash detection,
   respawn, hard watchdog).  The daemon's socket loop is exercised
   end-to-end against the real binary in test/servecli. *)

module J = Obs.Json
module P = Serve.Protocol
module FI = Repair.Faultinject

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let racy_src =
  {|
def main() {
  val a: int[] = new int[4];
  async { a[0] = 1; }
  a[0] = 2;
  print(a[0]);
}
|}

let spec ?(id = "t") ?(op = P.Repair) ?(flags = P.default_flags) src =
  { P.id; op; src; flags }

(* ------------------------------------------------------------------ *)
(* Jobq                                                                *)
(* ------------------------------------------------------------------ *)

let test_jobq_shed () =
  let q = Serve.Jobq.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Serve.Jobq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Serve.Jobq.try_push q 2);
  Alcotest.(check bool) "push 3 shed" false (Serve.Jobq.try_push q 3);
  Alcotest.(check int) "len" 2 (Serve.Jobq.length q);
  Alcotest.(check (option int)) "pop fifo" (Some 1) (Serve.Jobq.pop q);
  Alcotest.(check bool) "push after pop" true (Serve.Jobq.try_push q 4)

let test_jobq_force_front () =
  let q = Serve.Jobq.create ~capacity:1 in
  Alcotest.(check bool) "push" true (Serve.Jobq.try_push q 1);
  (* crash re-enqueue: bypasses capacity AND goes to the front *)
  Serve.Jobq.force_push q 0;
  Alcotest.(check int) "over capacity" 2 (Serve.Jobq.length q);
  Alcotest.(check (option int)) "front first" (Some 0) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "then fifo" (Some 1) (Serve.Jobq.pop q)

let test_jobq_close_drains () =
  let q = Serve.Jobq.create ~capacity:4 in
  ignore (Serve.Jobq.try_push q 1);
  ignore (Serve.Jobq.try_push q 2);
  Serve.Jobq.close q;
  Alcotest.(check bool) "push after close refused" false (Serve.Jobq.try_push q 3);
  Alcotest.(check (option int)) "drain 1" (Some 1) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "then None" None (Serve.Jobq.pop q)

let test_jobq_pop_blocks_until_push () =
  let q = Serve.Jobq.create ~capacity:4 in
  let d = Domain.spawn (fun () -> Serve.Jobq.pop q) in
  Unix.sleepf 0.02;
  ignore (Serve.Jobq.try_push q 42);
  Alcotest.(check (option int)) "blocked pop woken" (Some 42) (Domain.join d)

let test_jobq_remove () =
  let q = Serve.Jobq.create ~capacity:4 in
  List.iter (fun x -> ignore (Serve.Jobq.try_push q x)) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "remove mid" (Some 2)
    (Serve.Jobq.remove q (fun x -> x = 2));
  Alcotest.(check (option int)) "remove missing" None
    (Serve.Jobq.remove q (fun x -> x = 9));
  Alcotest.(check (option int)) "order kept 1" (Some 1) (Serve.Jobq.pop q);
  Alcotest.(check (option int)) "order kept 3" (Some 3) (Serve.Jobq.pop q)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_roundtrip () =
  let c = Serve.Cache.create ~capacity:2 in
  Alcotest.(check (option string)) "miss" None (Serve.Cache.find c "k1");
  Serve.Cache.store c "k1" "v1";
  Alcotest.(check (option string)) "hit" (Some "v1") (Serve.Cache.find c "k1");
  Alcotest.(check (pair int int)) "stats" (1, 1) (Serve.Cache.stats c)

let test_cache_fifo_eviction () =
  let c = Serve.Cache.create ~capacity:2 in
  Serve.Cache.store c "k1" "v1";
  Serve.Cache.store c "k2" "v2";
  Serve.Cache.store c "k3" "v3";
  Alcotest.(check int) "bounded" 2 (Serve.Cache.length c);
  Alcotest.(check (option string)) "oldest evicted" None (Serve.Cache.find c "k1");
  Alcotest.(check (option string)) "newest kept" (Some "v3")
    (Serve.Cache.find c "k3")

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let parse_ok line =
  match P.parse line with
  | Ok r -> r
  | Error _ -> Alcotest.failf "unexpected parse error on %S" line

let test_protocol_parse_job () =
  match
    parse_ok
      {|{"op":"repair","id":"j1","src":"def main() {}","flags":{"mode":"srw","backend":"vclock","strategy":"tournament","shadow_chunk":512,"spill":"/tmp/sp","timeout_ms":50,"retries":1,"trace":true,"set":{"n":3},"faults":["detector_abort","interp_trap:99","slow_stage:20"]}}|}
  with
  | P.Job s ->
      Alcotest.(check string) "id" "j1" s.P.id;
      Alcotest.(check bool) "op" true (s.P.op = P.Repair);
      Alcotest.(check bool) "mode" true
        (s.P.flags.P.options.mode = Espbags.Detector.Srw);
      Alcotest.(check bool) "backend" true
        (s.P.flags.P.options.backend = `Vclock);
      Alcotest.(check bool) "strategy" true
        (s.P.flags.P.options.strategy = `Tournament);
      Alcotest.(check (option int)) "shadow_chunk" (Some 512)
        s.P.flags.P.options.shadow_chunk;
      Alcotest.(check (option string)) "spill" (Some "/tmp/sp")
        s.P.flags.P.options.spill;
      Alcotest.(check (option int)) "timeout" (Some 50)
        s.P.flags.P.timeout_ms;
      Alcotest.(check (option int)) "retries" (Some 1) s.P.flags.P.retries;
      Alcotest.(check bool) "trace" true s.P.flags.P.trace;
      Alcotest.(check (list (pair string int))) "sets" [ ("n", 3) ]
        s.P.flags.P.options.sets;
      Alcotest.(check (list string)) "faults"
        [ "detector_abort"; "interp_trap:99"; "slow_stage:20" ]
        (List.map P.fault_to_string s.P.flags.P.faults)
  | _ -> Alcotest.fail "expected a job"

let test_protocol_parse_control () =
  (match parse_ok {|{"op":"health"}|} with
  | P.Health -> ()
  | _ -> Alcotest.fail "expected health");
  (match parse_ok {|{"op":"shutdown"}|} with
  | P.Shutdown -> ()
  | _ -> Alcotest.fail "expected shutdown");
  match parse_ok {|{"op":"cancel","id":7}|} with
  | P.Cancel id -> Alcotest.(check string) "int id coerced" "7" id
  | _ -> Alcotest.fail "expected cancel"

let test_protocol_errors_typed () =
  let err line =
    match P.parse line with
    | Error e -> P.frame (P.error_reply e)
    | Ok _ -> Alcotest.failf "expected error for %S" line
  in
  (* golden error frames: canonical sorted-key emission *)
  Alcotest.(check bool) "malformed tagged" true
    (contains ~affix:{|"error": "malformed-frame"|}
       (err "{not json"));
  Alcotest.(check bool) "non-object tagged" true
    (contains ~affix:{|"error": "malformed-frame"|}
       (err "[1,2]"));
  Alcotest.(check bool) "bad op tagged" true
    (contains ~affix:{|"error": "bad-request"|}
       (err {|{"op":"frobnicate"}|}));
  Alcotest.(check bool) "missing src tagged" true
    (contains ~affix:{|"error": "bad-request"|}
       (err {|{"op":"repair","id":"x"}|}));
  Alcotest.(check bool) "bad fault tagged" true
    (contains ~affix:{|"error": "bad-request"|}
       (err {|{"op":"repair","id":"x","src":"","flags":{"faults":["nope"]}}|}))

(* Served flags get the checks the CLI applies: a shadow chunk, a
   timeout or a retry count out of range and an unknown key are bad
   requests naming the problem, not internal failures or silently
   ignored keys. *)
let test_protocol_flag_checks () =
  let detail flags =
    let line =
      Fmt.str {|{"op":"detect","id":"x","src":"def main() {}","flags":%s}|}
        flags
    in
    match P.parse line with
    | Error (P.Bad_request m) -> m
    | Error e -> Alcotest.failf "expected bad-request, got %s"
                   (P.frame (P.error_reply e))
    | Ok _ -> Alcotest.failf "expected bad-request for %s" flags
  in
  List.iter
    (fun flags ->
      Alcotest.(check bool) (flags ^ " rejected") true
        (contains ~affix:"chunk size must be positive" (detail flags)))
    [ {|{"shadow_chunk":0}|}; {|{"shadow_chunk":-4}|} ];
  Alcotest.(check bool) "oversized chunk rejected" true
    (contains ~affix:"shadow_chunk: chunk size must be at most"
       (detail {|{"shadow_chunk":1073741824}|}));
  Alcotest.(check bool) "unknown key named" true
    (contains ~affix:"static_prun" (detail {|{"static_prun":true}|}));
  Alcotest.(check bool) "ill-typed value named" true
    (contains ~affix:"budget_fuel" (detail {|{"budget_fuel":"lots"}|}));
  (* the job's own keys get the range of their CLI flag *)
  List.iter
    (fun (flags, why) ->
      Alcotest.(check string) (flags ^ " rejected") why (detail flags))
    [ ({|{"timeout_ms":-1}|}, "flags.timeout_ms: must be non-negative");
      ({|{"retries":-5}|}, "flags.retries: must be non-negative");
      ({|{"retries":-1}|}, "flags.retries: must be non-negative") ]

(* A non-finish strategy cannot report a static verdict or a spill
   count: the daemon refuses such jobs before admitting them, as the CLI
   refuses them before running. *)
let test_protocol_strategy_only_options () =
  let job flags =
    match
      P.parse
        (Fmt.str {|{"op":"repair","id":"x","src":"def main() {}","flags":%s}|}
           flags)
    with
    | Ok (P.Job s) -> s
    | _ -> Alcotest.failf "expected a job for %s" flags
  in
  let refused flags =
    match P.validate (job flags) with
    | Error (P.Bad_request _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "tournament + static_verify refused" true
    (refused {|{"strategy":"tournament","static_verify":true}|});
  Alcotest.(check bool) "elide + spill refused" true
    (refused {|{"strategy":"elide","spill":"/tmp/sp"}|});
  Alcotest.(check bool) "finish + static_verify admitted" false
    (refused {|{"static_verify":true,"spill":"/tmp/sp"}|});
  Alcotest.(check bool) "detect ignores the repair strategy" false
    (P.validate
       { (job {|{"strategy":"tournament","spill":"/tmp/sp"}|}) with
         P.op = P.Detect }
     <> Ok ())

let test_protocol_reply_golden () =
  Alcotest.(check string) "terminal reply frame"
    "{\"attempts\": 1, \"id\": \"j1\", \"status\": \"ok\"}\n"
    (P.frame (P.job_reply ~id:"j1" ~status:P.Sok ~attempts:1 ()));
  Alcotest.(check string) "overloaded reply frame"
    "{\"id\": \"j2\", \"status\": \"overloaded\"}\n"
    (P.frame (P.job_reply ~id:"j2" ~status:P.Soverloaded ()))

let test_cache_key_sensitivity () =
  let base = spec racy_src in
  let key = P.cache_key base in
  Alcotest.(check string) "deterministic" key (P.cache_key base);
  let ne label other =
    Alcotest.(check bool) label false (String.equal key (P.cache_key other))
  in
  ne "op matters" { base with P.op = P.Lint };
  ne "src matters" (spec (racy_src ^ " "));
  ne "mode matters"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options =
            { base.P.flags.P.options with mode = Espbags.Detector.Srw };
        };
    };
  ne "budgets matter"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options =
            {
              base.P.flags.P.options with
              budgets = { Repair.Guard.unlimited with fuel = Some 5 };
            };
        };
    };
  ne "sets matter"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with sets = [ ("n", 1) ] };
        };
    };
  (* every detector-affecting flag added since the daemon landed must
     key the cache too: serving an espbags reply to a vclock request (or
     a finish repair to a tournament request) is a stale-result bug *)
  ne "backend matters"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with backend = `Vclock };
        };
    };
  ne "auto backend distinct from explicit"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with backend = `Auto };
        };
    };
  ne "shadow_chunk matters"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with shadow_chunk = Some 256 };
        };
    };
  ne "spill matters"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with spill = Some "/tmp/sp" };
        };
    };
  ne "strategy matters"
    {
      base with
      P.flags =
        {
          base.P.flags with
          P.options = { base.P.flags.P.options with strategy = `Tournament };
        };
    };
  Alcotest.(check bool) "isolated and elide keys differ" false
    (String.equal
       (P.cache_key
          {
            base with
            P.flags =
              {
                base.P.flags with
                P.options =
                  { base.P.flags.P.options with strategy = `Isolated };
              };
          })
       (P.cache_key
          {
            base with
            P.flags =
              {
                base.P.flags with
                P.options = { base.P.flags.P.options with strategy = `Elide };
              };
          }));
  (* result-neutral flags must NOT change the key *)
  Alcotest.(check string) "trace ignored" key
    (P.cache_key
       { base with P.flags = { base.P.flags with P.trace = true } });
  Alcotest.(check string) "timeout ignored" key
    (P.cache_key
       { base with P.flags = { base.P.flags with P.timeout_ms = Some 9 } })

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let test_worker_repair_ok () =
  let o = Serve.Worker.execute (spec racy_src) in
  Alcotest.(check bool) "ok" true (o.Serve.Worker.status = P.Sok);
  Alcotest.(check int) "one attempt" 1 o.Serve.Worker.attempts;
  Alcotest.(check bool) "not cached" false o.Serve.Worker.cached;
  match o.Serve.Worker.report with
  | Some r ->
      Alcotest.(check (option bool)) "converged" (Some true)
        (Option.map (function J.Bool b -> b | _ -> false)
           (J.member "converged" r))
  | None -> Alcotest.fail "expected a report"

let test_worker_repair_strategy () =
  (* tournament repairs route through the strategy layer and report the
     winner plus every candidate's outcome *)
  let flags =
    {
      P.default_flags with
      P.options = { Repair.Options.default with strategy = `Tournament };
    }
  in
  let o = Serve.Worker.execute (spec ~flags racy_src) in
  Alcotest.(check bool) "ok" true (o.Serve.Worker.status = P.Sok);
  match o.Serve.Worker.report with
  | Some r ->
      (match J.member "winner" r with
      | Some (J.Str w) ->
          Alcotest.(check bool) "winner is a known strategy" true
            (List.mem w [ "finish"; "isolated"; "elide"; "chunk" ])
      | _ -> Alcotest.fail "expected a winner field");
      (match J.member "candidates" r with
      | Some (J.List cs) ->
          Alcotest.(check int) "four candidates" 4 (List.length cs)
      | _ -> Alcotest.fail "expected candidates");
      (match J.member "metrics" r with
      | Some (J.Obj kvs) ->
          Alcotest.(check bool) "strategy.winner metric present" true
            (List.mem_assoc "strategy.winner" kvs)
      | _ -> Alcotest.fail "expected metrics")
  | None -> Alcotest.fail "expected a report"

(* The fuel budget reaches every tournament candidate: a budget no
   repair fits in must not come back ok, as it does not for finish. *)
let test_worker_strategy_honours_fuel () =
  List.iter
    (fun strategy ->
      let flags =
        {
          P.default_flags with
          P.options =
            {
              Repair.Options.default with
              strategy;
              budgets = { Repair.Guard.unlimited with fuel = Some 1 };
            };
        }
      in
      let o = Serve.Worker.execute ~backoff_ms:1 (spec ~flags racy_src) in
      Alcotest.(check bool)
        (Fmt.str "%a not ok" Repair.Strategy.pp_choice strategy)
        true
        (o.Serve.Worker.status <> P.Sok))
    [ `Finish; `Tournament; `Isolated ]

let test_worker_detect_vclock_backend () =
  (* the backend flag must reach the worker's detect path *)
  let flags =
    {
      P.default_flags with
      P.options = { Repair.Options.default with backend = `Vclock };
    }
  in
  let o = Serve.Worker.execute (spec ~op:P.Detect ~flags racy_src) in
  Alcotest.(check bool) "ok" true (o.Serve.Worker.status = P.Sok);
  match o.Serve.Worker.report with
  | Some r ->
      Alcotest.(check (option string)) "vclock backend ran" (Some "vclock")
        (Option.map
           (function J.Str s -> s | _ -> "?")
           (J.member "backend" r))
  | None -> Alcotest.fail "expected a report"

let isolated_src =
  {|
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to 3) {
      async { isolated { sum[0] = sum[0] + i; } }
    }
  }
  print(sum[0]);
}
|}

let test_worker_detect_discharges_isolated () =
  (* detect must mirror Driver.detect: races whose endpoints both sit in
     isolated sections are discharged, not reported. *)
  let o = Serve.Worker.execute (spec ~op:P.Detect isolated_src) in
  Alcotest.(check bool) "ok" true (o.Serve.Worker.status = P.Sok);
  match o.Serve.Worker.report with
  | Some r ->
      Alcotest.(check (option int)) "no surviving races" (Some 0)
        (Option.map
           (function J.Int n -> n | _ -> -1)
           (J.member "races" r))
  | None -> Alcotest.fail "expected a report"

let test_worker_parse_error_fatal () =
  let o = Serve.Worker.execute (spec "def main( {") in
  Alcotest.(check bool) "failed" true (o.Serve.Worker.status = P.Sfailed);
  Alcotest.(check int) "no retry on input error" 1 o.Serve.Worker.attempts

let test_worker_transient_retry () =
  let flags = { P.default_flags with P.faults = [ FI.Detector_abort ] } in
  let o = Serve.Worker.execute ~backoff_ms:1 (spec ~flags racy_src) in
  (* the fault fires on attempt 1 only; attempt 2 runs clean *)
  Alcotest.(check bool) "recovered" true (o.Serve.Worker.status = P.Sok);
  Alcotest.(check int) "retried once" 2 o.Serve.Worker.attempts

let test_worker_retries_exhausted () =
  let flags = { P.default_flags with P.retries = Some 0;
                faults = [ FI.Detector_abort ] } in
  let o = Serve.Worker.execute ~backoff_ms:1 (spec ~flags racy_src) in
  Alcotest.(check bool) "terminal failure" true
    (o.Serve.Worker.status = P.Sfailed);
  Alcotest.(check int) "single attempt" 1 o.Serve.Worker.attempts

let test_worker_timeout_degraded () =
  let flags =
    { P.default_flags with P.timeout_ms = Some 40;
      faults = [ FI.Slow_stage 400 ] }
  in
  let t0 = Obs.Clock.now_ns () in
  let o = Serve.Worker.execute (spec ~flags racy_src) in
  let elapsed_ms =
    Int64.to_int (Int64.div (Int64.sub (Obs.Clock.now_ns ()) t0) 1_000_000L)
  in
  Alcotest.(check bool) "degraded" true (o.Serve.Worker.status = P.Sdegraded);
  Alcotest.(check bool) "watchdog named" true
    (match o.Serve.Worker.error with
    | Some e -> contains ~affix:"watchdog" e
    | None -> false);
  (* the watchdog fired mid-stall, well before the 400ms fault ended *)
  Alcotest.(check bool)
    (Fmt.str "timed out promptly (%d ms)" elapsed_ms)
    true (elapsed_ms < 300)

let test_worker_cache_hit_skips_pipeline () =
  let cache = Serve.Cache.create ~capacity:8 in
  let flags = { P.default_flags with P.trace = true } in
  let s = spec ~flags racy_src in
  let first = Serve.Worker.execute ~cache s in
  Alcotest.(check bool) "first not cached" false first.Serve.Worker.cached;
  let spans1 =
    match first.Serve.Worker.spans with
    | Some ss -> ss
    | None -> Alcotest.fail "expected spans on traced run"
  in
  Alcotest.(check bool) "pipeline stages ran" true
    (List.mem "compile" spans1 && List.mem "iteration" spans1);
  let second = Serve.Worker.execute ~cache s in
  Alcotest.(check bool) "cache hit" true second.Serve.Worker.cached;
  Alcotest.(check int) "no attempt" 0 second.Serve.Worker.attempts;
  (* span ABSENCE is the proof no pipeline stage re-ran *)
  Alcotest.(check (option (list string))) "no spans on hit" (Some [])
    second.Serve.Worker.spans;
  (* and the report is byte-identical *)
  let bytes o =
    match o.Serve.Worker.report with
    | Some r -> J.to_string r
    | None -> Alcotest.fail "expected report"
  in
  Alcotest.(check string) "byte-identical report" (bytes first) (bytes second)

let test_worker_faulty_jobs_not_cached () =
  let cache = Serve.Cache.create ~capacity:8 in
  let flags = { P.default_flags with P.faults = [ FI.Detector_abort ] } in
  let o1 = Serve.Worker.execute ~cache ~backoff_ms:1 (spec ~flags racy_src) in
  Alcotest.(check bool) "recovered ok" true (o1.Serve.Worker.status = P.Sok);
  Alcotest.(check int) "nothing stored" 0 (Serve.Cache.length cache)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

(* Poll the supervisor until [n] completions arrive, reaping dead
   workers along the way (the daemon's event loop does the same). *)
let await_completions sup n =
  let deadline = Int64.add (Obs.Clock.now_ns ()) 20_000_000_000L in
  let rec go acc =
    if List.length acc >= n then List.rev acc
    else if Int64.compare (Obs.Clock.now_ns ()) deadline > 0 then
      Alcotest.failf "timed out with %d of %d completion(s)"
        (List.length acc) n
    else begin
      Serve.Supervisor.reap sup;
      let cs = Serve.Supervisor.completions sup in
      if cs = [] then Unix.sleepf 0.01;
      go (List.rev_append cs acc)
    end
  in
  go []

let test_supervisor_runs_jobs () =
  let sup =
    Serve.Supervisor.create ~workers:2 ~queue_capacity:8 ~cache_capacity:0
      ~backoff_ms:1 ~notify:(fun () -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.shutdown sup) @@ fun () ->
  let seqs =
    List.filter_map
      (fun i ->
        match Serve.Supervisor.submit sup (spec ~id:(string_of_int i) racy_src)
        with
        | `Accepted seq -> Some seq
        | `Overloaded -> None)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "all admitted" 4 (List.length seqs);
  let cs = await_completions sup 4 in
  Alcotest.(check (list int)) "every job exactly once" (List.sort compare seqs)
    (List.sort compare
       (List.map (fun (c : Serve.Supervisor.completion) -> c.seq) cs));
  List.iter
    (fun (c : Serve.Supervisor.completion) ->
      Alcotest.(check bool) "ok" true
        (c.outcome.Serve.Worker.status = P.Sok))
    cs

let test_supervisor_crash_respawn () =
  let sup =
    Serve.Supervisor.create ~workers:1 ~queue_capacity:8 ~cache_capacity:0
      ~backoff_ms:1 ~notify:(fun () -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.shutdown sup) @@ fun () ->
  (* job 1 kills its worker; job 2 is queued behind it.  The supervisor
     must respawn the worker, re-enqueue job 1 at the front, and both
     jobs must still reach exactly one terminal completion. *)
  let flags = { P.default_flags with P.faults = [ FI.Worker_crash ] } in
  let s1 =
    match Serve.Supervisor.submit sup (spec ~id:"crashy" ~flags racy_src) with
    | `Accepted seq -> seq
    | `Overloaded -> Alcotest.fail "admission refused"
  in
  let s2 =
    match Serve.Supervisor.submit sup (spec ~id:"normal" racy_src) with
    | `Accepted seq -> seq
    | `Overloaded -> Alcotest.fail "admission refused"
  in
  let cs = await_completions sup 2 in
  Alcotest.(check (list int)) "both terminal exactly once"
    (List.sort compare [ s1; s2 ])
    (List.sort compare
       (List.map (fun (c : Serve.Supervisor.completion) -> c.seq) cs));
  List.iter
    (fun (c : Serve.Supervisor.completion) ->
      Alcotest.(check bool)
        (Fmt.str "seq %d ok after respawn" c.Serve.Supervisor.seq)
        true
        (c.outcome.Serve.Worker.status = P.Sok))
    cs;
  Alcotest.(check bool) "crash counted" true
    (Serve.Supervisor.crashes sup >= 1);
  Alcotest.(check bool) "worker respawned" true
    (Serve.Supervisor.respawns sup >= 1)

let test_supervisor_hard_watchdog () =
  let sup =
    Serve.Supervisor.create ~workers:1 ~queue_capacity:8 ~cache_capacity:0
      ~backoff_ms:1 ~notify:(fun () -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.shutdown sup) @@ fun () ->
  (* no timeout_ms: the cooperative watchdog is disarmed, so the 800ms
     stall wedges the worker; only the hard watchdog can save us *)
  let flags = { P.default_flags with P.faults = [ FI.Slow_stage 800 ] } in
  let seq =
    match Serve.Supervisor.submit sup (spec ~id:"wedge" ~flags racy_src) with
    | `Accepted seq -> seq
    | `Overloaded -> Alcotest.fail "admission refused"
  in
  Unix.sleepf 0.15;
  Serve.Supervisor.check_wedged sup ~limit_ms:50;
  let cs = await_completions sup 1 in
  let c = List.hd cs in
  Alcotest.(check int) "wedged job answered" seq c.Serve.Supervisor.seq;
  Alcotest.(check bool) "degraded" true
    (c.outcome.Serve.Worker.status = P.Sdegraded);
  Alcotest.(check bool) "respawned" true (Serve.Supervisor.respawns sup >= 1);
  (* the replacement worker serves new jobs while the abandoned one is
     still sleeping *)
  (match Serve.Supervisor.submit sup (spec ~id:"after" racy_src) with
  | `Accepted _ -> ()
  | `Overloaded -> Alcotest.fail "admission refused");
  let cs = await_completions sup 1 in
  Alcotest.(check bool) "pool alive after abandonment" true
    ((List.hd cs).outcome.Serve.Worker.status = P.Sok)

let test_supervisor_overload_shed () =
  (* a stalled single worker + tiny queue: pushes beyond capacity must
     shed, and every admitted job still terminates exactly once *)
  let sup =
    Serve.Supervisor.create ~workers:1 ~queue_capacity:2 ~cache_capacity:0
      ~backoff_ms:1 ~notify:(fun () -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.shutdown sup) @@ fun () ->
  let slow =
    { P.default_flags with P.faults = [ FI.Slow_stage 150 ];
      timeout_ms = Some 10_000 }
  in
  let results =
    List.map
      (fun i ->
        Serve.Supervisor.submit sup
          (spec ~id:(string_of_int i) ~flags:slow racy_src))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let admitted =
    List.filter_map
      (function `Accepted s -> Some s | `Overloaded -> None)
      results
  in
  Alcotest.(check bool) "some admitted" true (List.length admitted >= 1);
  Alcotest.(check bool) "some shed" true
    (List.length admitted < List.length results);
  let cs = await_completions sup (List.length admitted) in
  Alcotest.(check (list int)) "admitted jobs all terminal"
    (List.sort compare admitted)
    (List.sort compare
       (List.map (fun (c : Serve.Supervisor.completion) -> c.seq) cs))

let test_supervisor_cancel () =
  let sup =
    Serve.Supervisor.create ~workers:1 ~queue_capacity:8 ~cache_capacity:0
      ~backoff_ms:1 ~notify:(fun () -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Serve.Supervisor.shutdown sup) @@ fun () ->
  let slow =
    { P.default_flags with P.faults = [ FI.Slow_stage 150 ];
      timeout_ms = Some 10_000 }
  in
  (* the first job occupies the worker; the second is still queued and
     can be cancelled *)
  ignore (Serve.Supervisor.submit sup (spec ~id:"busy" ~flags:slow racy_src));
  Unix.sleepf 0.03;
  (match Serve.Supervisor.submit sup (spec ~id:"victim" racy_src) with
  | `Accepted _ -> ()
  | `Overloaded -> Alcotest.fail "admission refused");
  Alcotest.(check bool) "queued job cancelled" true
    (Serve.Supervisor.cancel sup "victim" <> None);
  Alcotest.(check (option int)) "cancel is gone" None
    (Serve.Supervisor.cancel sup "victim");
  let cs = await_completions sup 1 in
  Alcotest.(check string) "only the busy job completes" "busy"
    (List.hd cs).Serve.Supervisor.spec.P.id

(* A detect reply listing every race can run to tens of MB.  Line
   extraction on both ends must scan each incoming chunk once — the
   old code rescanned the whole buffer per 4 KB read, turning a 32 MB
   frame into minutes of memory traffic.  32 MB must round-trip in
   seconds. *)
let test_client_large_frame () =
  let rd, wr = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let payload = String.make (32 * 1024 * 1024) 'x' in
  let writer =
    Domain.spawn (fun () ->
        let s = payload ^ "\nsecond\n" in
        let len = String.length s in
        let rec go off =
          if off < len then
            match Unix.write_substring wr s off (min 4096 (len - off)) with
            | n -> go (off + n)
            | exception Unix.Unix_error (EINTR, _, _) -> go off
        in
        go 0;
        Unix.close wr)
  in
  let t0 = Unix.gettimeofday () in
  let c = Serve.Client.of_fd rd in
  (match Serve.Client.recv c with
  | Some line ->
      Alcotest.(check int) "frame length" (String.length payload)
        (String.length line);
      Alcotest.(check bool) "frame content" true (line = payload)
  | None -> Alcotest.fail "no frame");
  Alcotest.(check (option string)) "next frame intact" (Some "second")
    (Serve.Client.recv c);
  Alcotest.(check (option string)) "eof" None (Serve.Client.recv c);
  Domain.join writer;
  Serve.Client.close c;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 20. then
    Alcotest.failf "32 MB frame took %.1fs — line scan is superlinear"
      elapsed

let () =
  Alcotest.run "serve"
    [
      ( "jobq",
        [
          Alcotest.test_case "bounded shed" `Quick test_jobq_shed;
          Alcotest.test_case "force push front" `Quick test_jobq_force_front;
          Alcotest.test_case "close drains" `Quick test_jobq_close_drains;
          Alcotest.test_case "pop blocks" `Quick
            test_jobq_pop_blocks_until_push;
          Alcotest.test_case "remove" `Quick test_jobq_remove;
        ] );
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "fifo eviction" `Quick test_cache_fifo_eviction;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse job" `Quick test_protocol_parse_job;
          Alcotest.test_case "parse control" `Quick
            test_protocol_parse_control;
          Alcotest.test_case "typed errors" `Quick test_protocol_errors_typed;
          Alcotest.test_case "flag checks" `Quick test_protocol_flag_checks;
          Alcotest.test_case "finish-only options" `Quick
            test_protocol_strategy_only_options;
          Alcotest.test_case "reply goldens" `Quick
            test_protocol_reply_golden;
          Alcotest.test_case "cache key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "large frame linear scan" `Slow
            test_client_large_frame;
        ] );
      ( "worker",
        [
          Alcotest.test_case "repair ok" `Quick test_worker_repair_ok;
          Alcotest.test_case "repair via strategy tournament" `Quick
            test_worker_repair_strategy;
          Alcotest.test_case "strategy honours fuel budget" `Quick
            test_worker_strategy_honours_fuel;
          Alcotest.test_case "detect honours vclock backend" `Quick
            test_worker_detect_vclock_backend;
          Alcotest.test_case "detect discharges isolated" `Quick
            test_worker_detect_discharges_isolated;
          Alcotest.test_case "input error fatal" `Quick
            test_worker_parse_error_fatal;
          Alcotest.test_case "transient retry" `Quick
            test_worker_transient_retry;
          Alcotest.test_case "retries exhausted" `Quick
            test_worker_retries_exhausted;
          Alcotest.test_case "timeout degraded" `Quick
            test_worker_timeout_degraded;
          Alcotest.test_case "cache hit skips pipeline" `Quick
            test_worker_cache_hit_skips_pipeline;
          Alcotest.test_case "faulty jobs not cached" `Quick
            test_worker_faulty_jobs_not_cached;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "runs jobs" `Quick test_supervisor_runs_jobs;
          Alcotest.test_case "crash respawn" `Quick
            test_supervisor_crash_respawn;
          Alcotest.test_case "hard watchdog" `Slow
            test_supervisor_hard_watchdog;
          Alcotest.test_case "overload shed" `Quick
            test_supervisor_overload_shed;
          Alcotest.test_case "cancel" `Quick test_supervisor_cancel;
        ] );
    ]
