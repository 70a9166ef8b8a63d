(* table1-repair: `tdrepair repair --validate-par=2` (MRW, ESP-bags,
   batch placement) on each of the twelve finish-stripped Table 1
   programs at repair size.  It is the paper's own traffic and the only
   workload where placement does real work (Mergesort alone has ~444k
   MRW races), and it exercises the parallel engine through validation.
   The seed fixes the order of the programs in every pass. *)

module H = Harness
module D = Repair.Driver

let request = { Par.Validate.default_request with schedules = 2 }

type input = {
  name : string;
  prog : Mhj.Ast.program;
  expert_output : string;  (** the expert program's depth-first output *)
  expert_cpl : int;
  racy_parallelism : float;  (** work / CPL of the stripped program *)
  mutable repaired : string;
      (** [Driver.repair]'s program, pretty-printed, from the warm-up *)
}

let parallelism (tree : Sdpst.Node.tree) =
  float_of_int (Sdpst.Analysis.work tree)
  /. float_of_int (max 1 (Sdpst.Analysis.critical_path_length tree))

(* Obs.Trace spans that [Driver.place_for_tree] already emits, renamed
   into the layer they time. *)
let layer_of_trace_span = function
  | "scopecheck" -> "mhj.scopecheck"
  | "nslca-group" -> "sdpst.nslca"
  | "depgraph" -> "core.depgraph"
  | "dp-place" -> "core.dp_place"
  | other -> "core." ^ other

let detect program =
  let det, _ =
    H.span "espbags.detect" (fun () ->
        H.heap_high "espbags.hw_mwords" (fun () ->
            Espbags.Detector.detect Espbags.Detector.Mrw program))
  in
  H.detector_counters ~layer:"espbags" (Espbags.Detector.stats det);
  H.span "core.suppress" (fun () ->
      Repair.Isolate.suppress program (Espbags.Detector.races det))

let place program races =
  Obs.Trace.enable ();
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Trace.reset ())
    (fun () ->
      H.span "core.place" (fun () ->
          let r = D.place_for_tree ~program races in
          List.iter
            (fun (e : Obs.Trace.event) ->
              H.child
                ~name:(layer_of_trace_span e.name)
                ~start_ns:e.ts_ns
                ~end_ns:(Int64.add e.ts_ns e.dur_ns) ())
            (Obs.Trace.events ());
          r))

(* Driver.repair's batch loop, stage by stage through public entry points
   and in its order (detect, place, rewrite, re-detect, ..., validate),
   so each stage gets its own span.  Returns the repaired
   program, whether it converged, the validation outcome and every
   program it ran the detector on (for the interpretation probe). *)
let staged_repair prog =
  let detected = ref [] in
  let rec loop program iteration remaining =
    detected := program :: !detected;
    let races =
      if iteration = 0 then detect program
      else H.span "core.reverify" (fun () -> detect program)
    in
    if races = [] then (program, true)
    else if remaining = 0 then (program, false)
    else begin
      H.count "core.races" (float_of_int (List.length races));
      H.count "core.race_pairs"
        (float_of_int
           (H.span "core.dedupe" (fun () ->
                List.length (Espbags.Race.dedupe_by_steps races))));
      let groups, merged = place program races in
      H.count "core.groups" (float_of_int (List.length groups));
      H.count "core.depgraph_vertices"
        (float_of_int
           (List.fold_left
              (fun acc (g : D.group_result) -> acc + g.n_vertices)
              0 groups));
      H.count "core.finishes"
        (float_of_int (List.length merged.Repair.Static_place.placements));
      let program' =
        H.span "core.rewrite" (fun () ->
            Repair.Static_place.apply program merged)
      in
      loop program' (iteration + 1) (remaining - 1)
    end
  in
  let program, converged = loop prog 0 D.default_max_iterations in
  let validated =
    if converged then begin
      let v =
        H.span "par.validate" (fun () ->
            Par.Validate.of_request request program)
      in
      H.count "par.schedules" (float_of_int v.Par.Validate.ran);
      Option.iter
        (fun (s : Par.Engine.stats) ->
          H.count "par.tasks" (float_of_int s.Par.Engine.n_tasks))
        v.Par.Validate.engine;
      Some v
    end
    else None
  in
  (program, converged, validated, List.rev !detected)

let setup ~seed =
  let compile_s = ref 0. in
  let inputs =
    List.map
      (fun (b : Benchsuite.Bench.t) ->
        let src =
          Mhj.Pretty.program_to_string (Benchsuite.Bench.stripped_program b)
        in
        let prog, dt = H.time (fun () -> Mhj.Front.compile src) in
        compile_s := !compile_s +. dt;
        let expert = Rt.Interp.run (Benchsuite.Bench.repair_program b) in
        let racy = Rt.Interp.run prog in
        {
          name = b.name;
          prog;
          expert_output = expert.Rt.Interp.output;
          expert_cpl = Sdpst.Analysis.critical_path_length expert.tree;
          racy_parallelism = parallelism racy.tree;
          repaired = "";
        })
      (H.shuffle ~seed Benchsuite.Suite.all)
  in
  let cpl_ratios = ref [] and retained = ref [] in
  let detected = ref [] in
  let validate_ok = function Some v -> Par.Validate.ok v | None -> false in
  let pass ~full =
    detected := [];
    List.fold_left
      (fun total i ->
        if !H.tracing then begin
          let (program, converged, validated, ran), dt =
            H.op ~input:i.name (fun () -> staged_repair i.prog)
          in
          detected := ran @ !detected;
          H.check ~input:i.name
            (converged && validate_ok validated
            && Mhj.Pretty.program_to_string program = i.repaired)
            "staged repair differs from Driver.repair";
          total +. dt
        end
        else begin
          let r, dt =
            H.op ~input:i.name (fun () -> D.repair ~validate_par:request i.prog)
          in
          let text = Mhj.Pretty.program_to_string r.D.program in
          let output_ok =
            if not full then true
            else begin
              (* the warm-up checks the repaired program against the
                 expert one, scores it, and fixes the reference text *)
              let run = Rt.Interp.run r.D.program in
              let cpl = Sdpst.Analysis.critical_path_length run.tree in
              cpl_ratios :=
                (float_of_int cpl /. float_of_int (max 1 i.expert_cpl))
                :: !cpl_ratios;
              retained :=
                (parallelism run.tree /. i.racy_parallelism) :: !retained;
              i.repaired <- text;
              run.Rt.Interp.output = i.expert_output
            end
          in
          H.check ~input:i.name
            (r.D.converged && r.D.final_races = 0
            && validate_ok r.D.validated_par
            && text = i.repaired && output_ok)
            "repair did not converge, failed validation, printed other \
             output than the expert program, or changed";
          total +. dt
        end)
      0. inputs
  in
  let probe () =
    List.iter
      (fun p ->
        let res = H.span "rt.run" (fun () -> Rt.Interp.run p) in
        H.count "rt.work_units" (float_of_int res.Rt.Interp.work);
        H.count "sdpst.nodes" (float_of_int res.tree.Sdpst.Node.n_nodes))
      !detected
  in
  let values () =
    [
      ("cpl_ratio", H.geomean !cpl_ratios);
      ("retained_parallelism", H.geomean !retained);
      ("mhj.compile_s", !compile_s);
    ]
  in
  {
    H.pass;
    probe;
    values;
    derived = (fun () -> []);
    peak_rss_mb = H.self_peak_rss_mb;
    teardown = ignore;
  }
