(* Footprint guards on the scale presets named on the command line.

   [footprint.exe PRESET...] checks the S-DPST: after a depth-first run,
   the tree (arena, chunk directory, growth slack and side tables) must
   stay within [max_node_words] reachable words per node.

   [footprint.exe --shadow PRESET...] checks the MRW shadow: after a
   detection with each backend, the detector's reachable words minus its
   tree's must stay within [max_location_words] per touched location.

   Exits 1 on a preset over its bound. *)

let max_node_words = 10.
let max_location_words = 24.

let reachable x = Obj.reachable_words (Obj.repr x)

let program name =
  let cfg = List.assoc name Benchsuite.Progen.scale_presets in
  Mhj.Front.compile (Benchsuite.Progen.generate_scaled cfg)

let sdpst name =
  let tree = (Rt.Interp.run (program name)).tree in
  let words =
    float_of_int (reachable tree) /. float_of_int tree.Sdpst.Node.n_nodes
  in
  Printf.printf "%s: %d nodes, %.2f words per node\n" name
    tree.Sdpst.Node.n_nodes words;
  words <= max_node_words

let shadow name =
  let prog = program name in
  let per_location backend det ~tree ~locations =
    let words =
      float_of_int (reachable det - reachable tree) /. float_of_int locations
    in
    Printf.printf "%s/%s: %d locations, %.2f words per location\n" name
      backend locations words;
    words <= max_location_words
  in
  let eb, _ = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let eb_ok =
    per_location "espbags" eb ~tree:eb.Espbags.Detector.tree
      ~locations:eb.Espbags.Detector.n_locations
  in
  let vc, _ = Vclock.Seq.detect Vclock.Seq.Mrw prog in
  let vc_ok =
    per_location "vclock" vc ~tree:vc.Vclock.Seq.tree
      ~locations:vc.Vclock.Seq.n_locations
  in
  eb_ok && vc_ok

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let check, bound, args =
    match args with
    | "--shadow" :: rest ->
        (shadow, Printf.sprintf "%.0f words per location" max_location_words,
         rest)
    | _ -> (sdpst, Printf.sprintf "%.0f words per node" max_node_words, args)
  in
  if not (List.for_all Fun.id (List.map check args)) then begin
    Printf.printf "footprint exceeds %s\n" bound;
    exit 1
  end
