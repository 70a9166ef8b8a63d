(* Parallel execution backend (lib/par): work-stealing deque, the
   domains/fuzz engine against the sequential interpreter, deterministic
   schedule replay, and the schedule-fuzzing differential layer.

   The acceptance property of the backend is differential: race-free
   programs (the paper's Problem 1 output) must produce the sequential
   interpreter's printed-line multiset and final global state under
   EVERY schedule, while racy programs are allowed — and at least some
   are expected — to diverge.  `dune runtest` uses a bounded number of
   generated programs; the @ci alias (TDR_QCHECK_COUNT, TDR_PAR_DOMAINS)
   runs the deep pass: 300 programs x 10 schedules on 2 domains. *)

let compile = Mhj.Front.compile

let generate seed = Benchsuite.Progen.generate ~seed ()

let count =
  Option.value ~default:60
    (Option.bind (Sys.getenv_opt "TDR_QCHECK_COUNT") int_of_string_opt)

let par_domains =
  Option.value ~default:2
    (Option.bind (Sys.getenv_opt "TDR_PAR_DOMAINS") int_of_string_opt)

(* Observable behavior: printed-line multiset + final global state.
   Line *order* is schedule-dependent even race-free (prints from
   parallel tasks), so only the multiset is compared. *)
let observation (output, globals) =
  (Par.Validate.sorted_lines output, Rt.Value.digest_globals globals)

let seq_observation prog =
  let r = Rt.Interp.run prog in
  (observation (r.output, r.globals), r.work)

let par_observation ~mode prog =
  let r = Par.Engine.run ~mode prog in
  (observation (r.Par.Engine.output, r.globals), r.work)

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let test_deque_owner () =
  let d = Par.Deque.create ~capacity:2 () in
  Alcotest.(check (option int)) "empty pop" None (Par.Deque.pop d);
  for i = 1 to 100 do
    Par.Deque.push d i
  done;
  Alcotest.(check int) "size" 100 (Par.Deque.size d);
  (* owner end is LIFO *)
  Alcotest.(check (option int)) "pop newest" (Some 100) (Par.Deque.pop d);
  (* thief end is FIFO *)
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Par.Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 2) (Par.Deque.steal d);
  Alcotest.(check (option int)) "pop next" (Some 99) (Par.Deque.pop d);
  let rec drain acc =
    match Par.Deque.pop d with None -> acc | Some v -> drain (v :: acc)
  in
  Alcotest.(check int) "rest drains" 96 (List.length (drain []));
  Alcotest.(check (option int)) "empty again" None (Par.Deque.pop d)

(* Owner pushes/pops while thief domains steal: every element must be
   taken exactly once across all parties. *)
let test_deque_stress () =
  let n = 20_000 and n_thieves = 3 in
  let d = Par.Deque.create () in
  let done_flag = Atomic.make false in
  let thief () =
    let taken = ref [] in
    while not (Atomic.get done_flag) do
      match Par.Deque.steal d with
      | Some v -> taken := v :: !taken
      | None -> Domain.cpu_relax ()
    done;
    (* final drain so nothing is stranded when the owner stops early *)
    let rec drain () =
      match Par.Deque.steal d with
      | Some v ->
          taken := v :: !taken;
          drain ()
      | None -> ()
    in
    drain ();
    !taken
  in
  let thieves = Array.init n_thieves (fun _ -> Domain.spawn thief) in
  let mine = ref [] in
  for i = 1 to n do
    Par.Deque.push d i;
    (* pop roughly every third push to fight the thieves on both ends *)
    if i mod 3 = 0 then
      match Par.Deque.pop d with
      | Some v -> mine := v :: !mine
      | None -> ()
  done;
  Atomic.set done_flag true;
  let stolen = Array.to_list (Array.map Domain.join thieves) in
  let rec drain () =
    match Par.Deque.pop d with
    | Some v ->
        mine := v :: !mine;
        drain ()
    | None -> ()
  in
  drain ();
  let all = List.concat (!mine :: stolen) in
  Alcotest.(check int) "every element taken once" n (List.length all);
  Alcotest.(check (list int)) "no duplicates, no losses"
    (List.init n (fun i -> i + 1))
    (List.sort compare all)

(* ------------------------------------------------------------------ *)
(* Engine vs. sequential interpreter                                   *)
(* ------------------------------------------------------------------ *)

(* Expert-synchronized benchsuite programs are race-free: every mode and
   every seed must reproduce the sequential observation, and charge
   exactly the same total work. *)
let test_engine_matches_interp () =
  List.iter
    (fun name ->
      let b = Option.get (Benchsuite.Suite.find name) in
      let prog = Benchsuite.Bench.repair_program b in
      let obs, work = seq_observation prog in
      for seed = 1 to 3 do
        let fobs, fwork =
          par_observation ~mode:(Par.Engine.Fuzz { seed }) prog
        in
        Alcotest.(check (pair (list string) string))
          (Fmt.str "%s fuzz seed %d" name seed)
          obs fobs;
        Alcotest.(check int) (Fmt.str "%s work seed %d" name seed) work fwork
      done;
      let dobs, dwork =
        par_observation
          ~mode:(Par.Engine.Domains { n = par_domains; seed = 1 })
          prog
      in
      Alcotest.(check (pair (list string) string))
        (Fmt.str "%s on %d domains" name par_domains)
        obs dobs;
      Alcotest.(check int) (Fmt.str "%s domains work" name) work dwork)
    [ "Fibonacci"; "Series"; "Nqueens" ]

(* The same seed must replay the same schedule bit-for-bit — including
   the raw (unsorted) output order — even on a racy program. *)
let racy_src =
  "var sum: int = 0;\n\
   def main() {\n\
  \  val a: int[] = new int[8];\n\
  \  finish {\n\
  \    for (i = 0 to 7) {\n\
  \      async { a[i] = i; sum = sum + i; print(sum); }\n\
  \    }\n\
  \  }\n\
  \  print(sum);\n\
   }"

let test_fuzz_replay_deterministic () =
  let prog = compile racy_src in
  for seed = 0 to 4 do
    let r1 = Par.Engine.run ~mode:(Par.Engine.Fuzz { seed }) prog in
    let r2 = Par.Engine.run ~mode:(Par.Engine.Fuzz { seed }) prog in
    Alcotest.(check string)
      (Fmt.str "output replay, seed %d" seed)
      r1.Par.Engine.output r2.Par.Engine.output;
    Alcotest.(check string)
      (Fmt.str "state replay, seed %d" seed)
      r1.digest r2.digest
  done

let test_out_of_fuel () =
  let b = Option.get (Benchsuite.Suite.find "Fibonacci") in
  let prog = Benchsuite.Bench.repair_program b in
  Alcotest.check_raises "fuel exhausts in parallel too"
    Rt.Interp.Out_of_fuel (fun () ->
      ignore (Par.Engine.run ~fuel:50 ~mode:(Par.Engine.Fuzz { seed = 1 }) prog))

(* --timeout-ms must bound parallel runs too: the engine polls the
   deadline armed on the calling domain, also from Domains workers. *)
let test_watchdog_bounds_engine () =
  let prog =
    compile
      "var s: int[] = new int[2]; def main() { finish { async { for (i = 0 \
       to 100000000) { s[0] = s[0] + 1; } } async { for (i = 0 to \
       100000000) { s[1] = s[1] + 1; } } } }"
  in
  List.iter
    (fun mode ->
      Alcotest.check_raises "deadline fires" (Rt.Watchdog.Timeout 50)
        (fun () ->
          Rt.Watchdog.with_timeout ~ms:(Some 50) (fun () ->
              ignore (Par.Engine.run ~fuel:20_000_000 ~mode prog))))
    [ Par.Engine.Fuzz { seed = 1 }; Par.Engine.Domains { n = 2; seed = 1 } ]

(* The OCaml 5.1 runtime caps a process at 128 domains.  A larger
   Domains run must be refused before any worker exists, not fail in
   the 128th Domain.spawn with the earlier workers never joined. *)
let test_domain_cap () =
  let prog = compile "def main() { print(1); }" in
  Alcotest.check_raises "refused up front"
    (Invalid_argument "Par.Engine.run: 129 domains exceeds max_domains (128)")
    (fun () ->
      let mode = Par.Engine.Domains { n = 129; seed = 1 } in
      ignore (Par.Engine.run ~mode prog))

(* ------------------------------------------------------------------ *)
(* Differential schedule fuzzing over generated programs               *)
(* ------------------------------------------------------------------ *)

let schedules_per_program = 10

(* The backbone differential sweep (deterministic, seeded): repair each
   generated program, then require every fuzzed schedule — and a real
   multi-domain run — to reproduce the sequential observation of the
   repaired (race-free) program. *)
let test_differential_racefree () =
  for seed = 1 to count do
    let prog = compile (generate seed) in
    let report = Repair.Driver.repair prog in
    if report.converged then begin
      let obs, work = seq_observation report.program in
      for k = 0 to schedules_per_program - 1 do
        let fobs, fwork =
          par_observation
            ~mode:(Par.Engine.Fuzz { seed = (1000 * seed) + k })
            report.program
        in
        Alcotest.(check (pair (list string) string))
          (Fmt.str "program %d, schedule %d" seed k)
          obs fobs;
        Alcotest.(check int)
          (Fmt.str "program %d, schedule %d work" seed k)
          work fwork
      done;
      let dobs, _ =
        par_observation
          ~mode:(Par.Engine.Domains { n = par_domains; seed })
          report.program
      in
      Alcotest.(check (pair (list string) string))
        (Fmt.str "program %d on %d domains" seed par_domains)
        obs dobs
    end
  done

(* Adversarial: racy programs.  Post-repair, --validate-par semantics
   (Par.Validate) must never report a divergence; pre-repair, at least
   one racy program must actually diverge under fuzzing — otherwise the
   fuzzer explores too little to be worth anything. *)
let test_adversarial_racy () =
  let racy_target = 15 in
  let racy_seen = ref 0 in
  let pre_repair_divergence = ref 0 in
  let seed = ref 0 in
  while !racy_seen < racy_target && !seed < 400 do
    incr seed;
    let seed = !seed in
    let prog = compile (generate seed) in
    let report = Repair.Driver.repair prog in
    let was_racy =
      match report.iterations with it :: _ -> it.n_races > 0 | [] -> false
    in
    if was_racy then begin
      incr racy_seen;
      let pre = Par.Validate.check ~schedules:schedules_per_program
          ~seed:(7000 + seed) prog
      in
      if pre.divergences <> [] then incr pre_repair_divergence;
      if report.converged then begin
        let post =
          Par.Validate.check ~schedules:schedules_per_program
            ~seed:(7000 + seed) report.program
        in
        Alcotest.(check bool)
          (Fmt.str "repaired program %d never diverges" seed)
          true (Par.Validate.ok post)
      end
    end
  done;
  Alcotest.(check int) "found enough racy programs" racy_target !racy_seen;
  Alcotest.(check bool)
    (Fmt.str "some racy program diverges pre-repair (%d of %d did)"
       !pre_repair_divergence racy_target)
    true
    (!pre_repair_divergence > 0)

let test_validate_budget_skip () =
  let prog = compile racy_src in
  let v = Par.Validate.check ~budget_ms:0 ~schedules:10 prog in
  Alcotest.(check int) "nothing ran" 0 v.ran;
  Alcotest.(check int) "all skipped" 10 v.skipped;
  Alcotest.(check bool) "not ok" false (Par.Validate.ok v);
  Alcotest.(check bool) "but no divergences" true (v.divergences = [])

(* Driver integration: validate_par lands in the report and skipped
   schedules surface as a degradation. *)
let test_driver_validate_par () =
  let prog = compile racy_src in
  let report =
    Repair.Driver.repair
      ~validate_par:Par.Validate.default_request prog
  in
  Alcotest.(check bool) "converged" true report.converged;
  (match report.validated_par with
  | Some v ->
      Alcotest.(check bool) "validation ok" true (Par.Validate.ok v);
      Alcotest.(check int) "all schedules ran" 10 v.ran
  | None -> Alcotest.fail "validated_par missing from report");
  Alcotest.(check bool) "no degradation" true (report.degradations = []);
  let skipped =
    Repair.Driver.repair
      ~validate_par:{ Par.Validate.schedules = 10; seed = 1; budget_ms = Some 0 }
      prog
  in
  match skipped.degradations with
  | [ Repair.Guard.Validate_par_skipped { ran = 0; requested = 10 } ] -> ()
  | ds ->
      Alcotest.fail
        (Fmt.str "expected Validate_par_skipped, got %a"
           (Fmt.list Repair.Guard.pp_degradation)
           ds)

(* A caller that already ran the program passes its observation as the
   reference: the verdict, the schedules run and the divergence seeds
   are those of a validation that runs its own reference — also on a
   racy program whose schedules diverge, and for the driver, whose
   converged detection run is the reference. *)
let test_validate_reference () =
  let same label (a : Par.Validate.t) (b : Par.Validate.t) =
    Alcotest.(check (list (pair int string)))
      (label ^ ": divergences")
      (List.map (fun (d : Par.Validate.divergence) -> (d.schedule_seed, d.detail))
         a.divergences)
      (List.map (fun (d : Par.Validate.divergence) -> (d.schedule_seed, d.detail))
         b.divergences);
    Alcotest.(check (pair int int)) (label ^ ": ran, skipped")
      (a.ran, a.skipped) (b.ran, b.skipped)
  in
  let prog = compile racy_src in
  let own = Par.Validate.check ~schedules:10 prog in
  Alcotest.(check bool) "the racy program diverges" true
    (own.divergences <> []);
  same "racy"
    own
    (Par.Validate.check ~schedules:10
       ~reference:(Par.Validate.reference (Rt.Interp.run prog))
       prog);
  let request = { Par.Validate.default_request with schedules = 3 } in
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      let report =
        Repair.Driver.repair ~validate_par:request
          (Benchsuite.Bench.stripped_program b)
      in
      match report.validated_par with
      | Some v ->
          same b.name (Par.Validate.of_request request report.program) v
      | None -> Alcotest.failf "%s: not validated" b.name)
    (List.filter
       (fun (b : Benchsuite.Bench.t) ->
         List.mem b.name [ "Fibonacci"; "Quicksort"; "Series"; "Crypt" ])
       Benchsuite.Suite.all)

(* qcheck variant with uniformly random program seeds, for coverage the
   fixed 1..count sweep cannot give. *)
let qcheck_differential =
  QCheck.Test.make ~name:"random race-free program: schedules agree"
    ~count:(min 30 count)
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair prog in
      (not report.converged)
      || Par.Validate.ok
           (Par.Validate.check ~schedules:3 ~seed report.program))

let () =
  Alcotest.run "par"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_owner;
          Alcotest.test_case "concurrent stress" `Quick test_deque_stress;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches interpreter on benchsuite" `Quick
            test_engine_matches_interp;
          Alcotest.test_case "fuzz replay is deterministic" `Quick
            test_fuzz_replay_deterministic;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "watchdog bounds the engine" `Quick
            test_watchdog_bounds_engine;
          Alcotest.test_case "domain count is capped" `Quick test_domain_cap;
        ] );
      ( "differential",
        [
          Alcotest.test_case "race-free sweep" `Slow
            test_differential_racefree;
          Alcotest.test_case "adversarial racy programs" `Slow
            test_adversarial_racy;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "validate",
        [
          Alcotest.test_case "budget skip" `Quick test_validate_budget_skip;
          Alcotest.test_case "driver integration" `Quick
            test_driver_validate_par;
          Alcotest.test_case "reference reuse" `Quick test_validate_reference;
        ] );
    ]
