(* scale-detect: MRW detection only (`tdrepair detect`), with both
   sequential backends, on the ~10^6-access grid, hot, phased and sparse
   presets.  It bypasses placement (at most a few dozen races each) and
   stresses interpretation, shadow memory and epoch GC.  deep-1m is left
   out: interpreting it alone takes seconds, which would leave too few
   passes per run.  The seed picks each preset's number of racy pairs,
   so the expected race count.  The order of the eight detections is
   fixed: the peak RSS depends on it. *)

module H = Harness

let presets = [ "grid-1m"; "hot-1m"; "phased-1m"; "sparse-1m" ]

type input = {
  name : string;
  prog : Mhj.Ast.program;
  racy_pairs : int;
  output : string;  (** the uninstrumented run's output *)
}

let layer_of = function `Espbags -> "espbags" | `Vclock -> "vclock"

(* One detection; returns the exact race signatures and the output. *)
let detect backend (i : input) =
  let layer = layer_of backend in
  H.span (layer ^ ".detect") (fun () ->
      H.heap_high (layer ^ ".hw_mwords") (fun () ->
          match backend with
          | `Espbags ->
              let det, res = Espbags.Detector.detect Espbags.Detector.Mrw i.prog in
              H.detector_counters ~layer (Espbags.Detector.stats det);
              (Espbags.Race.exact_sigs (Espbags.Detector.races det), res.output)
          | `Vclock ->
              let det, res = Vclock.Seq.detect Vclock.Seq.Mrw i.prog in
              H.detector_counters ~layer (Vclock.Seq.stats det);
              (Espbags.Race.exact_sigs (Vclock.Seq.races det), res.output)))

let setup ~seed =
  let st = Random.State.make [| seed |] in
  let compile_s = ref 0. in
  let inputs =
    List.map
      (fun name ->
        let cfg = List.assoc name Benchsuite.Progen.scale_presets in
        let racy_pairs = 2 + Random.State.int st 15 in
        let src =
          Benchsuite.Progen.generate_scaled { cfg with racy_pairs }
        in
        let prog, dt = H.time (fun () -> Mhj.Front.compile src) in
        compile_s := !compile_s +. dt;
        { name; prog; racy_pairs; output = (Rt.Interp.run prog).output })
      presets
  in
  let ops =
    List.concat_map (fun i -> [ (i, `Espbags); (i, `Vclock) ]) inputs
  in
  let pass ~full:_ =
    let sigs = Hashtbl.create 8 in
    List.fold_left
      (fun total ((i : input), backend) ->
        let id = i.name ^ "/" ^ layer_of backend in
        (* The previous detection left tens of millions of words of
           garbage: collect it outside the timed operation, so that the
           operation's time and the peak RSS do not depend on when the
           GC gets to it. *)
        H.span "gc.collect" Gc.compact;
        let (s, output), dt = H.op ~input:id (fun () -> detect backend i) in
        let agrees =
          match Hashtbl.find_opt sigs i.name with
          | None ->
              Hashtbl.replace sigs i.name s;
              true
          | Some other -> other = s
        in
        H.check ~input:id
          (List.length s = 2 * i.racy_pairs && output = i.output && agrees)
          (Fmt.str
             "%d races (expected %d), output changed, or the backends differ"
             (List.length s) (2 * i.racy_pairs));
        total +. dt)
      0. ops
  in
  let probe () =
    List.iter
      (fun i ->
        let res =
          H.span ~input:i.name "rt.run" (fun () -> Rt.Interp.run i.prog)
        in
        H.count "rt.work_units" (float_of_int res.Rt.Interp.work);
        H.count "sdpst.nodes" (float_of_int res.tree.Sdpst.Node.n_nodes))
      inputs
  in
  {
    H.pass;
    probe;
    values = (fun () -> [ ("mhj.compile_s", !compile_s) ]);
    derived = (fun () -> []);
    peak_rss_mb = H.self_peak_rss_mb;
    teardown = ignore;
  }
