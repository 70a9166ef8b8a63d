(* Reusable cross-backend differential harness.

   Every sequential detector backend (the seed ESP-bags reference, the
   optimized dense-shadow ESP-bags detector, the vector-clock detector)
   is wrapped as a [backend] value exposing one uniform [run]; the
   differential properties then quantify over (backend pair x program
   source x prune flag) instead of hand-rolling a comparison per pair.
   The oracle side of every test is [reference] — the seed
   implementation kept verbatim.

   Comparisons use {!Espbags.Race.exact_sigs}: node ids are
   deterministic under the depth-first interpreter, so two backends
   agree iff their signature lists are equal (ordered when both record
   in execution order, sorted when pruning may interleave reports
   differently). *)

let compile = Mhj.Front.compile

(* Shared deep-pass knob: `dune runtest` uses the bounded default, @ci
   rules override via TDR_QCHECK_COUNT. *)
let qcheck_count =
  match
    Option.bind (Sys.getenv_opt "TDR_QCHECK_COUNT") int_of_string_opt
  with
  | Some n when n > 0 -> n
  | _ -> 60

type outcome = {
  sigs : (int * int * string * string) list;  (** exact race records *)
  n_accesses : int;
  n_skipped : int;
}

type backend = {
  bname : string;
  run :
    ?keep:(bid:int -> idx:int -> bool) ->
    Espbags.Detector.mode ->
    Mhj.Ast.program ->
    outcome;
}

let reference =
  {
    bname = "reference";
    run =
      (fun ?keep mode prog ->
        let det, _ = Oracles.Reference.detect ?keep mode prog in
        {
          sigs = Espbags.Race.exact_sigs (Oracles.Reference.races det);
          n_accesses = det.Oracles.Reference.n_accesses;
          n_skipped = det.Oracles.Reference.n_skipped;
        });
  }

let espbags =
  {
    bname = "espbags";
    run =
      (fun ?keep mode prog ->
        let det, _ = Espbags.Detector.detect ?keep mode prog in
        {
          sigs = Espbags.Race.exact_sigs (Espbags.Detector.races det);
          n_accesses = det.Espbags.Detector.n_accesses;
          n_skipped = det.Espbags.Detector.n_skipped;
        });
  }

let vclock =
  {
    bname = "vclock";
    run =
      (fun ?keep mode prog ->
        let det, _ = Vclock.Seq.detect ?keep mode prog in
        {
          sigs = Espbags.Race.exact_sigs (Vclock.Seq.races det);
          n_accesses = det.Vclock.Seq.n_accesses;
          n_skipped = det.Vclock.Seq.n_skipped;
        });
  }

(* Memory-bounded variants (DESIGN.md §15): a tiny chunk size forces
   the multi-chunk slab path on every program, and a tiny spill cap
   forces race records through the on-disk Trace round-trip.  Epoch GC
   is always on.  All of it must leave the reported races byte-identical
   to the unbounded oracle. *)
let tiny_chunk = 16

let with_tiny_spill f =
  let path = Filename.temp_file "tdr_diff" ".spill" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Espbags.Spill.config ~cap:2 path))

let espbags_chunked =
  {
    bname = "espbags[chunk=16]";
    run =
      (fun ?keep mode prog ->
        let det, _ =
          Espbags.Detector.detect ?keep ~chunk:tiny_chunk mode prog
        in
        {
          sigs = Espbags.Race.exact_sigs (Espbags.Detector.races det);
          n_accesses = det.Espbags.Detector.n_accesses;
          n_skipped = det.Espbags.Detector.n_skipped;
        });
  }

let espbags_spilled =
  {
    bname = "espbags[chunk=16,spill cap=2]";
    run =
      (fun ?keep mode prog ->
        with_tiny_spill (fun spill ->
            let det, _ =
              Espbags.Detector.detect ?keep ~chunk:tiny_chunk ~spill mode
                prog
            in
            {
              sigs = Espbags.Race.exact_sigs (Espbags.Detector.races det);
              n_accesses = det.Espbags.Detector.n_accesses;
              n_skipped = det.Espbags.Detector.n_skipped;
            }));
  }

let vclock_chunked =
  {
    bname = "vclock[chunk=16]";
    run =
      (fun ?keep mode prog ->
        let det, _ = Vclock.Seq.detect ?keep ~chunk:tiny_chunk mode prog in
        {
          sigs = Espbags.Race.exact_sigs (Vclock.Seq.races det);
          n_accesses = det.Vclock.Seq.n_accesses;
          n_skipped = det.Vclock.Seq.n_skipped;
        });
  }

let vclock_spilled =
  {
    bname = "vclock[chunk=16,spill cap=2]";
    run =
      (fun ?keep mode prog ->
        with_tiny_spill (fun spill ->
            let det, _ =
              Vclock.Seq.detect ?keep ~chunk:tiny_chunk ~spill mode prog
            in
            {
              sigs = Espbags.Race.exact_sigs (Vclock.Seq.races det);
              n_accesses = det.Vclock.Seq.n_accesses;
              n_skipped = det.Vclock.Seq.n_skipped;
            }));
  }

let check_identical ~seed ~what a b =
  if a <> b then
    QCheck.Test.fail_reportf
      "seed %d: %s differ@.lhs (%d): @[%a@]@.rhs (%d): @[%a@]" seed what
      (List.length a)
      Fmt.(list ~sep:comma Espbags.Race.pp_sig)
      a (List.length b)
      Fmt.(list ~sep:comma Espbags.Race.pp_sig)
      b

(* One differential check: [backend] vs [reference] on the program
   generated from [seed].  [prune] monitors only statements the static
   pre-pass cannot prove race-free; pruned comparisons are multiset
   (sorted) since skipped accesses no longer interleave reports. *)
let diff_one ?(gen_cfg = Benchsuite.Progen.default) ~backend ~mode ~prune seed
    =
  let prog = compile (Benchsuite.Progen.generate ~cfg:gen_cfg ~seed ()) in
  let oracle = reference.run mode prog in
  if prune then begin
    let pr = Static.Prune.make prog in
    let got = backend.run ~keep:(Static.Prune.keep_fn pr) mode prog in
    check_identical ~seed
      ~what:
        (Fmt.str "pruned %s %a race multisets vs seed" backend.bname
           Espbags.Detector.pp_mode mode)
      (List.sort compare got.sigs)
      (List.sort compare oracle.sigs);
    if got.n_skipped > oracle.n_accesses then
      QCheck.Test.fail_reportf "seed %d: %s skipped more accesses than exist"
        seed backend.bname
  end
  else begin
    let got = backend.run mode prog in
    check_identical ~seed
      ~what:
        (Fmt.str "%s %a race records vs seed" backend.bname
           Espbags.Detector.pp_mode mode)
      got.sigs oracle.sigs;
    if got.n_accesses <> oracle.n_accesses then
      QCheck.Test.fail_reportf "seed %d: %s access counters differ (%d vs %d)"
        seed backend.bname got.n_accesses oracle.n_accesses
  end;
  true

(* The full (backend x mode x prune) grid as qcheck tests over random
   program seeds. *)
let diff_tests ?gen_cfg ?(count = qcheck_count) ~backends ~modes ~prunes () =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun mode ->
          List.map
            (fun prune ->
              QCheck.Test.make ~count
                ~name:
                  (Fmt.str "%s %a%s == seed" backend.bname
                     Espbags.Detector.pp_mode mode
                     (if prune then " + static prune (multiset)"
                      else " (ordered records)"))
                QCheck.(int_range 0 1_000_000)
                (diff_one ?gen_cfg ~backend ~mode ~prune))
            prunes)
        modes)
    backends

(* [(src id, sink id)] of every pair of a set, in order. *)
let pair_ids pairs =
  let module P = Espbags.Race.Pairs in
  List.init (P.length pairs) (fun k -> (P.src_id pairs k, P.sink_id pairs k))

(* Pair-set differential: [Shadow.S.pairs], read off the spill file and
   the packed buffer, must be [dedupe_by_steps] of the materialized
   races pair for pair and in order, each pair counting its reports, and
   both must match a table-based first-seen dedupe. *)
let pairs_one (module D : Espbags.Shadow.S) ~mode ~spilled ~prune seed =
  let prog = compile (Benchsuite.Progen.generate ~seed ()) in
  let keep =
    if prune then Some (Static.Prune.keep_fn (Static.Prune.make prog))
    else None
  in
  let check spill =
    let det, _ = D.detect ?keep ?spill mode prog in
    let pairs = D.pairs det and races = D.races det in
    let ids (r : Espbags.Race.t) = (r.src, r.sink) in
    let want = List.map ids (Espbags.Race.dedupe_by_steps races) in
    let got = pair_ids pairs in
    if got <> want then
      QCheck.Test.fail_reportf
        "seed %d: pair set differs from deduped races@.got  (%d): %a@.want \
         (%d): %a"
        seed (List.length got)
        Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
        got (List.length want)
        Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
        want;
    (* an oracle that shares no code with Race.Pairs: first-seen order
       and per-pair report counts from a table *)
    let tally = Hashtbl.create 64 and first_seen = ref [] in
    List.iter
      (fun r ->
        let k = ids r in
        match Hashtbl.find_opt tally k with
        | Some n -> Hashtbl.replace tally k (n + 1)
        | None ->
            Hashtbl.replace tally k 1;
            first_seen := k :: !first_seen)
      races;
    if want <> List.rev !first_seen then
      QCheck.Test.fail_reportf "seed %d: dedupe_by_steps is not first-seen"
        seed;
    List.iteri
      (fun k id ->
        if Espbags.Race.Pairs.count pairs k <> Hashtbl.find tally id then
          QCheck.Test.fail_reportf "seed %d: pair %d counts %d, races %d" seed
            k
            (Espbags.Race.Pairs.count pairs k)
            (Hashtbl.find tally id))
      got;
    if Espbags.Race.Pairs.n_races pairs <> D.race_count det then
      QCheck.Test.fail_reportf "seed %d: multiplicities sum to %d, %d races"
        seed
        (Espbags.Race.Pairs.n_races pairs)
        (D.race_count det)
  in
  if spilled then with_tiny_spill (fun spill -> check (Some spill))
  else check None;
  true

(* The pair-set grid: (backend x mode x spill x prune). *)
let pairs_tests ?(count = qcheck_count) () =
  List.concat_map
    (fun (bname, backend) ->
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun spilled ->
              List.map
                (fun prune ->
                  QCheck.Test.make ~count
                    ~name:
                      (Fmt.str "%s %a%s%s pairs == dedupe_by_steps races" bname
                         Espbags.Detector.pp_mode mode
                         (if spilled then " [spill cap=2]" else "")
                         (if prune then " + static prune" else ""))
                    QCheck.(int_range 0 1_000_000)
                    (pairs_one backend ~mode ~spilled ~prune))
                [ false; true ])
            [ false; true ])
        [ Espbags.Detector.Srw; Espbags.Detector.Mrw ])
    [
      ("espbags", (module Espbags.Detector : Espbags.Shadow.S));
      ("vclock", (module Vclock.Seq : Espbags.Shadow.S));
    ]

(* Does a fresh repair-pipeline detection run under [backend] come back
   race-free, after isolated sections discharge their pairs?  The
   tournament tests re-verify candidates with it. *)
let race_free ~(backend : [< Repair.Options.backend ]) prog =
  let backend = (backend :> Repair.Options.backend) in
  let d =
    Repair.Driver.detect { Repair.Options.default with backend } prog
  in
  Espbags.Race.Pairs.length (Lazy.force d.Repair.Driver.pairs) = 0
