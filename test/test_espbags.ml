(* Tests for the ESP-bags race detectors: the bag transitions, the SRW vs
   MRW difference (paper §4.1, Figure 7), detection soundness on
   synchronized programs, and trace-file round-trips. *)

let detect mode src =
  Espbags.Detector.detect mode (Mhj.Front.compile src)

let race_count mode src = Espbags.Detector.race_count (fst (detect mode src))

(* ------------------------------------------------------------------ *)
(* Bags unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_bags_basic () =
  let b = Espbags.Bags.create () in
  Espbags.Bags.task_begin b ~task:0;
  Espbags.Bags.finish_begin b ~finish:0;
  (* main spawns task 1 which completes: it lands in the root P-bag *)
  Espbags.Bags.task_begin b ~task:1;
  Alcotest.(check int) "current task" 1 (Espbags.Bags.current_task b);
  Alcotest.(check bool) "running task is in its S-bag" false (Espbags.Bags.in_pbag b 1);
  Espbags.Bags.task_end b ~task:1;
  Alcotest.(check bool) "completed async is parallel" true (Espbags.Bags.in_pbag b 1);
  (* the root finish ends: task 1 is serialized again *)
  Espbags.Bags.finish_end b ~finish:0;
  Alcotest.(check bool) "after finish it is serial" false (Espbags.Bags.in_pbag b 1);
  Espbags.Bags.task_end b ~task:0

let test_bags_nested_finish () =
  let b = Espbags.Bags.create () in
  Espbags.Bags.task_begin b ~task:0;
  Espbags.Bags.finish_begin b ~finish:0;
  Espbags.Bags.finish_begin b ~finish:10;
  Espbags.Bags.task_begin b ~task:1;
  Espbags.Bags.task_end b ~task:1;
  Alcotest.(check bool) "parallel inside inner finish" true (Espbags.Bags.in_pbag b 1);
  Espbags.Bags.finish_end b ~finish:10;
  Alcotest.(check bool) "inner finish serializes" false (Espbags.Bags.in_pbag b 1);
  (* another async after the inner finish *)
  Espbags.Bags.task_begin b ~task:2;
  Espbags.Bags.task_end b ~task:2;
  Alcotest.(check bool) "still parallel under root" true (Espbags.Bags.in_pbag b 2);
  Alcotest.(check bool) "task 1 remains serial" false (Espbags.Bags.in_pbag b 1);
  Espbags.Bags.finish_end b ~finish:0;
  Espbags.Bags.task_end b ~task:0

let test_bags_stack_mismatch () =
  let b = Espbags.Bags.create () in
  Espbags.Bags.task_begin b ~task:0;
  Alcotest.check_raises "wrong task end"
    (Invalid_argument "Bags.task_end: task stack mismatch") (fun () ->
      Espbags.Bags.task_end b ~task:5)

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let racy_src =
  "var x: int = 0;\ndef main() { async { x = 1; } print(x); }"

let test_detects_simple_race () =
  Alcotest.(check int) "one race" 1 (race_count Espbags.Detector.Mrw racy_src);
  let det, _ = detect Espbags.Detector.Mrw racy_src in
  match Espbags.Detector.races det with
  | [ r ] ->
      Alcotest.(check string) "kind is W->R" "W->R"
        (Fmt.str "%a" Espbags.Race.pp_kind r.kind);
      Alcotest.(check bool)
        "endpoints may happen in parallel" true
        (Sdpst.Lca.may_happen_in_parallel r.tree r.src r.sink)
  | _ -> Alcotest.fail "expected exactly one race"

let test_no_race_when_synchronized () =
  let cases =
    [
      "var x: int = 0;\ndef main() { finish { async { x = 1; } } print(x); }";
      "var x: int = 0;\ndef main() { x = 1; async { print(x); } }";
      (* read-read is never a race *)
      "var x: int = 5;\ndef main() { async { print(x); } print(x); }";
      (* cas is exempt *)
      "def main() { val a: int[] = new int[1]; async { val ok: bool = \
       cas(a, 0, 0, 1); } val ok2: bool = cas(a, 0, 1, 2); }";
    ]
  in
  List.iter
    (fun src ->
      Alcotest.(check int) src 0 (race_count Espbags.Detector.Mrw src))
    cases

let test_race_kinds () =
  let ww =
    "var x: int = 0;\ndef main() { async { x = 1; } x = 2; }"
  in
  let rw =
    "var x: int = 0;\ndef main() { async { print(x); } x = 2; }"
  in
  let kind_of src =
    let det, _ = detect Espbags.Detector.Mrw src in
    match Espbags.Detector.races det with
    | [ r ] -> Fmt.str "%a" Espbags.Race.pp_kind r.kind
    | rs -> Alcotest.failf "expected 1 race, got %d" (List.length rs)
  in
  Alcotest.(check string) "write-write" "W->W" (kind_of ww);
  Alcotest.(check string) "read-write" "R->W" (kind_of rw)

(* Paper Figure 7: two parallel readers then a writer.  SRW tracks a single
   reader so it reports one R->W race; MRW reports both. *)
let figure7_src =
  {|
var x: int = 0;
def main() {
  async { print(x); }
  async { print(x); }
  async { x = 1; }
}
|}

let test_figure7_srw_vs_mrw () =
  Alcotest.(check int) "SRW reports one" 1
    (race_count Espbags.Detector.Srw figure7_src);
  Alcotest.(check int) "MRW reports both" 2
    (race_count Espbags.Detector.Mrw figure7_src)

(* Figure 5 of the paper: two races, A2 -> A4 and A3 -> A4. *)
let figure5_src =
  {|
var x: int = 0;
var y: int = 0;
def main() {
  if (1 < 2) {
    async { work(5); }
    async { x = 1; }
  }
  async { y = 2; }
  async { print(x + y); }
}
|}

let test_figure5_races () =
  let det, _ = detect Espbags.Detector.Mrw figure5_src in
  let races = Espbags.Detector.races det in
  Alcotest.(check int) "two races" 2 (List.length races);
  let addrs =
    List.sort compare
      (List.map (fun (r : Espbags.Race.t) -> Fmt.str "%a" Rt.Addr.pp r.addr) races)
  in
  Alcotest.(check (list string)) "on x and y" [ "x"; "y" ] addrs

let test_mrw_superset_of_srw () =
  List.iter
    (fun seed ->
      let src = Benchsuite.Progen.generate ~seed () in
      let prog = Mhj.Front.compile src in
      let srw, _ = Espbags.Detector.detect Espbags.Detector.Srw prog in
      let mrw, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
      let s = Espbags.Detector.race_count srw in
      let m = Espbags.Detector.race_count mrw in
      if m < s then
        Alcotest.failf "seed %d: MRW (%d) reported fewer races than SRW (%d)"
          seed m s;
      (* and they agree on whether the program is racy at all *)
      if (s = 0) <> (m = 0) then
        Alcotest.failf "seed %d: SRW/MRW disagree on race freedom" seed)
    [ 11; 22; 33; 44; 55; 66 ]

let test_sources_precede_sinks () =
  let det, _ =
    detect Espbags.Detector.Mrw
      (Benchsuite.Progen.generate ~seed:4242 ())
  in
  List.iter
    (fun (r : Espbags.Race.t) ->
      if r.src >= r.sink then
        Alcotest.fail "race source must precede sink in DFS order")
    (Espbags.Detector.races det)

(* ------------------------------------------------------------------ *)
(* MHP oracle: MRW completeness and soundness                          *)
(* ------------------------------------------------------------------ *)

(* Record every monitored access with a passthrough monitor (also
   exercising Monitor.both), then compute the exact race set from the
   paper's Theorem 1 may-happen-in-parallel predicate and compare it with
   what MRW reported.  This is the strongest detector test we have: MRW
   must report a (src step, sink step, addr) triple iff two conflicting
   accesses of that address from those steps may run in parallel. *)
let mrw_equals_mhp_oracle seed =
  let src = Benchsuite.Progen.generate ~seed () in
  let prog = Mhj.Front.compile src in
  let accesses = ref [] in
  let recorder =
    {
      Rt.Monitor.nop with
      Rt.Monitor.on_access =
        (fun ~step ~bid:_ ~idx:_ addr kind ->
          accesses := (step, addr, kind) :: !accesses);
    }
  in
  let det = Espbags.Detector.make Espbags.Detector.Mrw in
  let res =
    Rt.Interp.run ~monitor:(Rt.Monitor.both recorder det.monitor) prog
  in
  let key (a : Sdpst.Node.t) (b : Sdpst.Node.t) (addr : Rt.Addr.t) =
    (a, b, Fmt.str "%a" Rt.Addr.pp addr)
  in
  let module S = Set.Make (struct
    type t = int * int * string

    let compare = compare
  end) in
  let reported =
    List.fold_left
      (fun acc (r : Espbags.Race.t) -> S.add (key r.src r.sink r.addr) acc)
      S.empty (Espbags.Detector.races det)
  in
  let accs = Array.of_list (List.rev !accesses) in
  let oracle = ref S.empty in
  let n = Array.length accs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s1, a1, k1 = accs.(i) and s2, a2, k2 = accs.(j) in
      if
        a1 = a2
        && (k1 = Rt.Monitor.Write || k2 = Rt.Monitor.Write)
        && s1 <> s2
        && Sdpst.Lca.may_happen_in_parallel res.tree s1 s2
      then begin
        let addr = Rt.Addr.Intern.of_id det.intern a1 in
        oracle :=
          S.add
            (if s1 < s2 then key s1 s2 addr
             else key s2 s1 addr)
            !oracle
      end
    done
  done;
  if not (S.equal reported !oracle) then begin
    let d1 = S.diff !oracle reported and d2 = S.diff reported !oracle in
    Alcotest.failf
      "seed %d: oracle/MRW mismatch (missed %d, spurious %d); e.g. %s" seed
      (S.cardinal d1) (S.cardinal d2)
      (match (S.choose_opt d1, S.choose_opt d2) with
      | Some (a, b, v), _ | None, Some (a, b, v) ->
          Fmt.str "(%d, %d, %s)" a b v
      | None, None -> "-")
  end

(* The quadratic oracle needs small traces, so use a compact generator
   configuration. *)
let oracle_cfg =
  {
    Benchsuite.Progen.default with
    Benchsuite.Progen.max_stmts = 3;
    max_depth = 3;
    arr_len = 4;
  }

let mrw_matches_oracle_prop =
  QCheck.Test.make ~name:"MRW race set equals the Theorem-1 MHP oracle"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~cfg:oracle_cfg ~seed () in
      (* guard against overly large traces; the property runs on the rest *)
      let prog = Mhj.Front.compile src in
      let count = ref 0 in
      let counter =
        {
          Rt.Monitor.nop with
          Rt.Monitor.on_access = (fun ~step:_ ~bid:_ ~idx:_ _ _ -> incr count);
        }
      in
      let _ = Rt.Interp.run ~monitor:counter prog in
      if !count > 800 then true
      else begin
        mrw_equals_mhp_oracle seed;
        true
      end)

(* SRW soundness: every SRW report is a true race (in the oracle set),
   and SRW is silent iff the program is race-free. *)
let srw_sound_prop =
  QCheck.Test.make ~name:"SRW reports are a sound subset of the oracle"
    ~count:30
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Benchsuite.Progen.generate ~cfg:oracle_cfg ~seed () in
      let prog = Mhj.Front.compile src in
      let srw, res = Espbags.Detector.detect Espbags.Detector.Srw prog in
      ignore res;
      List.for_all
        (fun (r : Espbags.Race.t) ->
          Sdpst.Lca.may_happen_in_parallel r.tree r.src r.sink)
        (Espbags.Detector.races srw))

(* ------------------------------------------------------------------ *)
(* Trace files                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let prog = Mhj.Front.compile figure5_src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let races = Espbags.Detector.races det in
  let text = Espbags.Trace.to_string ~mode:Espbags.Detector.Mrw races in
  (* a second (deterministic) run resolves the node ids *)
  let res2 = Rt.Interp.run prog in
  ignore res;
  let mode, races2 = Espbags.Trace.of_string res2.tree text in
  Alcotest.(check bool) "mode" true (mode = Espbags.Detector.Mrw);
  Alcotest.(check int) "count" (List.length races) (List.length races2);
  List.iter2
    (fun (a : Espbags.Race.t) (b : Espbags.Race.t) ->
      Alcotest.(check int) "src" a.src b.src;
      Alcotest.(check int) "sink" a.sink b.sink;
      Alcotest.(check bool) "addr" true (Rt.Addr.equal a.addr b.addr);
      Alcotest.(check bool) "kind" true (a.kind = b.kind))
    races races2

let test_trace_errors () =
  let prog = Mhj.Front.compile "def main() { print(1); }" in
  let res = Rt.Interp.run prog in
  let bad s =
    match Espbags.Trace.of_string res.tree s with
    | exception Espbags.Trace.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad magic" true (bad "nope\n");
  Alcotest.(check bool) "bad line" true
    (bad "tdrace-trace-v1\nwhatever\n");
  Alcotest.(check bool) "unknown node" true
    (bad "tdrace-trace-v1\nrace WR g:x 998 999\n")

let test_dedupe_count () =
  let det, _ =
    detect Espbags.Detector.Mrw
      {|
var x: int = 0;
def main() {
  async { for (i = 0 to 3) { x = x + 1; } }
  print(x);
}
|}
  in
  let races = Espbags.Detector.races det in
  let deduped = Espbags.Race.dedupe_by_steps races in
  Alcotest.(check bool) "dedupe shrinks or keeps" true
    (List.length deduped <= List.length races)

(* Race.Pairs.of_list documents that it raises on a list out of report
   order (a sink id that decreases), and so does dedupe_by_steps, its
   adapter; in report order both agree with the first-seen dedupe, and
   every report counts towards its pair. *)
let test_pairs_report_order () =
  let det, _ =
    detect Espbags.Detector.Mrw
      {|
var x: int = 0;
def main() {
  async { x = 1; }
  async { x = 2; }
  x = 3;
}
|}
  in
  let races = Espbags.Detector.races det in
  let sink_ids =
    List.sort_uniq compare
      (List.map (fun (r : Espbags.Race.t) -> r.sink) races)
  in
  Alcotest.(check bool) "several sinks" true (List.length sink_ids >= 2);
  let ids (r : Espbags.Race.t) = (r.src, r.sink) in
  let pairs = Espbags.Race.Pairs.of_list races in
  Alcotest.(check (list (pair int int)))
    "report order: first-seen pairs"
    (List.map ids (Espbags.Race.dedupe_by_steps races))
    (Diff_harness.pair_ids pairs);
  Alcotest.(check int) "multiplicities sum to the races" (List.length races)
    (Espbags.Race.Pairs.n_races pairs);
  let out_of_order = List.rev races in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "of_list raises out of report order" true
    (raises (fun () -> Espbags.Race.Pairs.of_list out_of_order));
  Alcotest.(check bool) "dedupe_by_steps raises out of report order" true
    (raises (fun () -> Espbags.Race.dedupe_by_steps out_of_order))

(* Race.Pairs.map merges the pairs it moves together, summing their
   reports, keeps the others in first-seen order, and rejects a move
   that puts a sink before its source. *)
let test_pairs_map () =
  let det, _ =
    detect Espbags.Detector.Mrw
      {|
var x: int = 0;
def main() {
  async { x = 1; }
  if (1 < 2) { print(x); print(x); }
  print(x);
}
|}
  in
  let module P = Espbags.Race.Pairs in
  let pairs = P.of_list (Espbags.Detector.races det) in
  Alcotest.(check int) "two pairs" 2 (P.length pairs);
  Alcotest.(check int) "three reports" 3 (P.n_races pairs);
  let same = P.map Fun.id pairs in
  Alcotest.(check (list (pair int int))) "identity keeps the pairs"
    (Diff_harness.pair_ids pairs) (Diff_harness.pair_ids same);
  let first = P.sink_id pairs 0 and last = P.sink_id pairs 1 in
  let merged = P.map (fun n -> if n = last then first else n) pairs in
  Alcotest.(check (list (pair int int))) "the sinks merge"
    [ (P.src_id pairs 0, first) ] (Diff_harness.pair_ids merged);
  Alcotest.(check int) "reports summed" 3 (P.count merged 0);
  Alcotest.(check bool) "a sink moved before its source raises" true
    (match P.map (fun n -> if n = first then P.src_id pairs 0 else n) pairs with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* A run that dies after its first spill drain must still release the
   spill file: OCaml never closes channels on GC, so a served job with a
   spill path and a fuel or time limit would leak one descriptor per
   job.  50 out-of-fuel MRW runs per backend, each draining to disk
   before it aborts, must leave the process's descriptor count where it
   started. *)
let test_spill_closed_on_abort () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let prog =
      Mhj.Front.compile
        {|
var x: int = 0;
def main() {
  finish { for (i = 0 to 100000) { async { x = x + 1; } } }
}
|}
    in
    let path = Filename.temp_file "tdr_leak" ".spill" in
    let spill = Espbags.Spill.config ~cap:2 path in
    let aborts = ref 0 in
    let run detect =
      try ignore (detect ()) with Rt.Interp.Out_of_fuel -> incr aborts
    in
    let before = open_fds () in
    for _ = 1 to 50 do
      run (fun () ->
          Espbags.Detector.detect ~fuel:200 ~spill Espbags.Detector.Mrw prog);
      run (fun () ->
          Vclock.Seq.detect ~fuel:200 ~spill Vclock.Seq.Mrw prog)
    done;
    let after = open_fds () in
    Sys.remove path;
    Alcotest.(check int) "every run ran out of fuel" 100 !aborts;
    Alcotest.(check int) "no descriptor leaked" before after
  end

(* ------------------------------------------------------------------ *)
(* Shadow memory                                                       *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* An SRW access allocates nothing: over a hot-address workload, a
   detection allocates at most half a minor word per access more than
   the uninstrumented run (the slack covers the detector's own growing
   vectors and clocks, which are amortized over the accesses). *)
let test_srw_allocation_free () =
  let prog =
    Mhj.Front.compile
      (Benchsuite.Progen.generate_scaled
         { shape = Hot { tasks = 16; reps = 256; hot = 16 }; racy_pairs = 2 })
  in
  ignore (Rt.Interp.run prog);
  let base = minor_words (fun () -> Rt.Interp.run prog) in
  List.iter
    (fun (name, detect) ->
      let accesses = ref 0 in
      let words = minor_words (fun () -> accesses := detect ()) in
      let extra = (words -. base) /. float_of_int !accesses in
      Alcotest.(check bool)
        (Fmt.str "%s: %.2f extra minor words per access over %d accesses"
           name extra !accesses)
        true
        (!accesses > 10_000 && extra <= 0.5))
    [ ( "espbags",
        fun () ->
          (fst (Espbags.Detector.detect Espbags.Detector.Srw prog))
            .Espbags.Detector.n_accesses );
      ( "vclock",
        fun () ->
          (fst (Vclock.Seq.detect Vclock.Seq.Srw prog)).Vclock.Seq.n_accesses
      ) ]

(* Epoch GC's retire-and-shrink path, on both backends: one location
   collects 200 entries inside a top-level finish and is accessed again
   after it, so that access sweeps both of its lists and shrinks their
   arrays.  Races stay those of the seed oracle, and the shadow's words
   fall between the finish's end and the end of the run. *)
let test_retire_and_shrink () =
  let prog =
    Mhj.Front.compile
      {|
var x: int = 0;
def main() {
  finish { for (i = 0 to 99) { async { x = x + 1; } } }
  x = x + 1;
  print(x);
}
|}
  in
  let oracle =
    Espbags.Race.exact_sigs
      (Oracles.Reference.races (fst (Oracles.Reference.detect Mrw prog)))
  in
  let check (module D : Espbags.Shadow.S) name =
    let det = D.make D.Mrw in
    let words () = List.assoc "detector.shadow_words" (D.stats det) in
    let at_finish = ref None in
    let probe =
      { Rt.Monitor.nop with
        on_finish_end =
          (fun _ -> if !at_finish = None then at_finish := Some (words ())) }
    in
    ignore (Rt.Interp.run ~monitor:(Rt.Monitor.both det.D.monitor probe) prog);
    Alcotest.(check bool) (name ^ ": races as the seed oracle") true
      (Espbags.Race.exact_sigs (D.races det) = oracle);
    Alcotest.(check int) (name ^ ": every entry retired") 200
      (List.assoc "detector.gc_retired" (D.stats det));
    let before = Option.get !at_finish and after = words () in
    Alcotest.(check bool)
      (Fmt.str "%s: shadow words fall after the sweep (%d -> %d)" name before
         after)
      true (after < before)
  in
  check (module Espbags.Detector) "espbags";
  check (module Vclock.Seq) "vclock"

let () =
  Alcotest.run "espbags"
    [
      ( "bags",
        [
          Alcotest.test_case "basic transitions" `Quick test_bags_basic;
          Alcotest.test_case "nested finish" `Quick test_bags_nested_finish;
          Alcotest.test_case "stack mismatch" `Quick test_bags_stack_mismatch;
        ] );
      ( "detection",
        [
          Alcotest.test_case "simple race" `Quick test_detects_simple_race;
          Alcotest.test_case "synchronized programs are clean" `Quick
            test_no_race_when_synchronized;
          Alcotest.test_case "race kinds" `Quick test_race_kinds;
          Alcotest.test_case "Figure 7 SRW vs MRW" `Quick
            test_figure7_srw_vs_mrw;
          Alcotest.test_case "Figure 5 races" `Quick test_figure5_races;
          Alcotest.test_case "MRW superset of SRW" `Quick
            test_mrw_superset_of_srw;
          Alcotest.test_case "source precedes sink" `Quick
            test_sources_precede_sinks;
          QCheck_alcotest.to_alcotest mrw_matches_oracle_prop;
          QCheck_alcotest.to_alcotest srw_sound_prop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round-trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_errors;
          Alcotest.test_case "dedupe counts" `Quick test_dedupe_count;
          Alcotest.test_case "spill closed on abort" `Quick
            test_spill_closed_on_abort;
          Alcotest.test_case "pairs need report order" `Quick
            test_pairs_report_order;
          Alcotest.test_case "pairs map" `Quick test_pairs_map;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "SRW allocation-free" `Quick
            test_srw_allocation_free;
          Alcotest.test_case "retire and shrink" `Quick test_retire_and_shrink;
        ] );
    ]
