(* The artifact workflow from the paper's Appendix A, as a library user
   would script it: (1) instrument & execute to detect races, writing a
   race trace and an S-DPST dump; (2) reload both — no re-execution; (3)
   run the analyzer on them to compute finish placements; (4) apply and
   verify.

   The phase separation matters: the detector and the analyzer communicate
   only through the recorded files, exactly like the paper's toolchain
   (and the tdrepair CLI's `detect --race-trace --dump-tree` / `analyze`).

   Run with: dune exec examples/trace_workflow.exe *)

let buggy =
  {|
var done_flags: int[] = new int[4];
var data: int[] = new int[4];

def producer(i: int) {
  data[i] = i * i;
  done_flags[i] = 1;
}

def main() {
  for (i = 0 to 3) {
    async { producer(i); }
  }
  var total: int = 0;
  for (i = 0 to 3) {
    if (done_flags[i] == 1) {
      total = total + data[i];
    }
  }
  print(total);
}
|}

let () =
  let program = Mhj.Front.compile buggy in
  let trace_path = Filename.temp_file "tdrace" ".trc" in
  let tree_path = Filename.temp_file "tdrace" ".tree" in

  (* Phase 1: instrumented execution records the trace and the S-DPST. *)
  let det, run = Espbags.Detector.detect Espbags.Detector.Mrw program in
  Espbags.Trace.save trace_path ~mode:Espbags.Detector.Mrw
    (Espbags.Detector.races det);
  let oc = open_out tree_path in
  output_string oc (Sdpst.Serial.tree_to_string run.tree);
  close_out oc;
  Fmt.pr "phase 1: %d race(s) and a %d-node S-DPST recorded@."
    (Espbags.Detector.race_count det)
    run.tree.Sdpst.Node.n_nodes;

  (* Phase 2: the analyzer reloads both files offline — no re-execution. *)
  let ic = open_in tree_path in
  let tree =
    Sdpst.Serial.tree_of_string
      (really_input_string ic (in_channel_length ic))
  in
  close_in ic;
  let _mode, races = Espbags.Trace.load trace_path tree in
  Fmt.pr "phase 2: %d race(s) resolved against the reloaded S-DPST@."
    (List.length races);
  let groups, merged = Repair.Driver.place_for_tree ~program races in
  Fmt.pr "phase 3: %d NS-LCA group(s) -> %d static placement(s):@."
    (List.length groups)
    (List.length merged.placements);
  List.iter
    (fun p -> Fmt.pr "  %a@." Mhj.Transform.pp_placement p)
    merged.placements;

  (* Phase 4: apply and verify. *)
  let repaired = Repair.Static_place.apply program merged in
  let det2, res2 = Espbags.Detector.detect Espbags.Detector.Mrw repaired in
  Fmt.pr "phase 4: races after applying the placements: %d@."
    (Espbags.Detector.race_count det2);
  Fmt.pr "output: %s@." (String.trim res2.output);
  Sys.remove trace_path;
  Sys.remove tree_path
