(* Whole-pipeline property tests over randomly generated async-finish
   programs (Benchsuite.Progen), checking the paper's Problem 1 contract:

   1. the repaired program has no data races for the input;
   2. inserted finishes respect lexical scope (the repaired program
      pretty-prints to something that still compiles);
   3. semantics equal the serial elision;
   4. statement order/count is preserved (only finish wrappers added). *)

let compile = Mhj.Front.compile

let generate seed = Benchsuite.Progen.generate ~seed ()

let repaired_is_race_free =
  QCheck.Test.make ~name:"repair converges to race-freedom" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair prog in
      report.converged
      && Espbags.Detector.race_count
           (fst (Espbags.Detector.detect Espbags.Detector.Mrw report.program))
         = 0)

let repaired_matches_elision =
  QCheck.Test.make ~name:"repaired semantics = serial elision" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair prog in
      let ser = Rt.Interp.run_elision prog in
      let rep = Rt.Interp.run report.program in
      ser.output = rep.output)

let repaired_recompiles =
  QCheck.Test.make ~name:"repaired program re-compiles from source" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair prog in
      match compile (Mhj.Pretty.program_to_string report.program) with
      | exception _ -> false
      | reparsed ->
          (Rt.Interp.run reparsed).output = (Rt.Interp.run report.program).output)

(* Only finish statements are added: async count identical, and the
   sequence of non-finish statement kinds in a preorder walk is identical. *)
let kind_fingerprint prog =
  let buf = Buffer.create 256 in
  Mhj.Ast.iter_stmts
    (fun st ->
      match st.Mhj.Ast.s with
      | Mhj.Ast.Finish _ -> ()
      | Mhj.Ast.Isolated _ -> Buffer.add_string buf "X;"
      | Mhj.Ast.Block _ -> ()
      | Mhj.Ast.Async _ -> Buffer.add_string buf "A;"
      | Mhj.Ast.Decl (_, x, _, _) -> Buffer.add_string buf ("D" ^ x ^ ";")
      | Mhj.Ast.Assign (x, _, _) -> Buffer.add_string buf ("=" ^ x ^ ";")
      | Mhj.Ast.If _ -> Buffer.add_string buf "I;"
      | Mhj.Ast.While _ -> Buffer.add_string buf "W;"
      | Mhj.Ast.For _ -> Buffer.add_string buf "F;"
      | Mhj.Ast.Return _ -> Buffer.add_string buf "R;"
      | Mhj.Ast.Expr _ -> Buffer.add_string buf "E;")
    prog;
  Buffer.contents buf

let statements_preserved =
  QCheck.Test.make ~name:"repair only adds finish wrappers" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair prog in
      kind_fingerprint prog = kind_fingerprint report.program
      && Mhj.Ast.count_asyncs prog = Mhj.Ast.count_asyncs report.program
      && Mhj.Ast.count_finishes report.program
         >= Mhj.Ast.count_finishes prog)

(* Pruning race-free subtrees (the paper's §9 memory mitigation) must not
   change the repair at all.  This used to hold only up to a 15%
   critical-path tolerance (loosened from 5% after progen seed 451531
   drifted 409 vs 449): collapsing a race-free scope that spawns asyncs
   hid finish-boundary positions inside its expansion, so the DP
   deterministically picked a different, longer placement.  [prune] now
   collapses a scope only when its subtree spawns no task (async/finish
   subtrees still collapse — they are single depgraph vertices with
   exact summaries), which restores placement identity: same merged
   finish set, same critical path, byte for byte.  Verified over 5000
   progen seeds including 451531 before tightening this back. *)
let prune_preserves_placement_quality =
  QCheck.Test.make ~name:"S-DPST pruning preserves the placement exactly"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
      let races = Espbags.Detector.races det in
      if races = [] then true
      else begin
        let _, merged1 = Repair.Driver.place_for_tree ~program:prog races in
        let endpoints = Hashtbl.create 64 in
        List.iter
          (fun (r : Espbags.Race.t) ->
            Hashtbl.replace endpoints r.src ();
            Hashtbl.replace endpoints r.sink ())
          races;
        let removed =
          Sdpst.Analysis.prune res.tree ~keep:(fun n ->
              Hashtbl.mem endpoints n)
        in
        let _, merged2 = Repair.Driver.place_for_tree ~program:prog races in
        if
          merged1.Repair.Static_place.placements
          <> merged2.Repair.Static_place.placements
        then
          QCheck.Test.fail_reportf
            "seed %d: pruning changed the merged placement@.unpruned: %a@.\
             pruned: %a"
            seed
            Fmt.(list ~sep:comma Mhj.Transform.pp_placement)
            merged1.Repair.Static_place.placements
            Fmt.(list ~sep:comma Mhj.Transform.pp_placement)
            merged2.Repair.Static_place.placements;
        let repaired m = Repair.Static_place.apply prog m in
        let cpl p =
          Sdpst.Analysis.critical_path_length (Rt.Interp.run p).tree
        in
        removed >= 0
        && cpl (repaired merged1) = cpl (repaired merged2)
      end)

(* Repair is idempotent: repairing a repaired program changes nothing. *)
let repair_idempotent =
  QCheck.Test.make ~name:"repair is idempotent" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let once = (Repair.Driver.repair prog).program in
      let report2 = Repair.Driver.repair once in
      List.length report2.iterations = 0)

(* Pruning race-free subtrees must not change the placement demanded. *)
let coverage_sane =
  QCheck.Test.make ~name:"coverage ratios are within [0,1]" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let res = Rt.Interp.run prog in
      let c = Repair.Coverage.of_runs prog [ res.tree ] in
      let ok r = r >= 0.0 && r <= 1.0 in
      ok (Repair.Coverage.stmt_coverage c)
      && ok (Repair.Coverage.async_coverage c)
      && c.covered_stmts <= c.total_stmts
      && c.covered_asyncs <= c.total_asyncs)

(* Tournament contract: every candidate claiming race-freedom re-detects
   clean under BOTH detection backends, and the selected winner's CPL is
   never worse than pure finish insertion's (the tie-break favours
   finish, so the winner is finish unless strictly better). *)
let tournament_sound =
  QCheck.Test.make ~name:"tournament verifies under both backends, never \
                          worse than finish" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      match Repair.Strategy.run `Tournament prog with
      | exception Repair.Driver.Unrepairable m ->
          QCheck.Test.fail_reportf
            "tournament unrepairable on a progen program: %s" m
      | outcome ->
          let open Repair.Strategy in
          List.iter
            (fun (c : candidate) ->
              if c.verified then begin
                let p = Option.get c.program in
                if not (Diff_harness.race_free ~backend:`Espbags p) then
                  QCheck.Test.fail_reportf
                    "%s candidate races under espbags" (kind_name c.kind);
                if not (Diff_harness.race_free ~backend:`Vclock p) then
                  QCheck.Test.fail_reportf
                    "%s candidate races under vclock" (kind_name c.kind)
              end)
            outcome.candidates;
          let fin =
            List.find (fun (c : candidate) -> c.kind = Finish)
              outcome.candidates
          in
          (match (outcome.winner.score, fin.score) with
          | Some w, Some f when fin.verified ->
              if w.Compgraph.Score.cpl > f.Compgraph.Score.cpl then
                QCheck.Test.fail_reportf
                  "winner cpl %d worse than finish cpl %d"
                  w.Compgraph.Score.cpl f.Compgraph.Score.cpl
          | _ -> ());
          true)

(* SRW repair agrees with MRW repair on the final race count (both zero),
   even if it takes more iterations. *)
let srw_also_converges =
  QCheck.Test.make ~name:"SRW-driven repair also converges" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let prog = compile (generate seed) in
      let report = Repair.Driver.repair
          ~options:{ Repair.Options.default with mode = Espbags.Detector.Srw }
          prog in
      report.converged)

let () =
  Alcotest.run "properties"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            repaired_is_race_free;
            repaired_matches_elision;
            repaired_recompiles;
            statements_preserved;
            repair_idempotent;
            prune_preserves_placement_quality;
            coverage_sane;
            tournament_sound;
            srw_also_converges;
          ] );
    ]
