(* S-DPST footprint guard on the scale presets named on the command
   line: after a depth-first run, the tree (arena, chunk directory,
   growth slack and side tables) must stay within [max_words] reachable
   words per node.  Exits 1 on a preset over the bound. *)

let max_words = 10.

let () =
  let over = ref false in
  for i = 1 to Array.length Sys.argv - 1 do
    let name = Sys.argv.(i) in
    let cfg = List.assoc name Benchsuite.Progen.scale_presets in
    let prog = Mhj.Front.compile (Benchsuite.Progen.generate_scaled cfg) in
    let tree = (Rt.Interp.run prog).tree in
    let words =
      float_of_int (Obj.reachable_words (Obj.repr tree))
      /. float_of_int tree.Sdpst.Node.n_nodes
    in
    Printf.printf "%s: %d nodes, %.2f words per node\n" name
      tree.Sdpst.Node.n_nodes words;
    if words > max_words then over := true
  done;
  if !over then begin
    Printf.printf "S-DPST footprint exceeds %.0f words per node\n" max_words;
    exit 1
  end
