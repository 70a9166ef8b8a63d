(* Tests for scope-validity (paper Algorithm 2, Figure 5) and the
   insertion-point construction. *)

let graph_of src =
  let prog = Mhj.Front.compile src in
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  let tree = res.Rt.Interp.tree in
  let races = Espbags.Race.dedupe_by_steps (Espbags.Detector.races det) in
  let span, _ = Sdpst.Analysis.span_memo tree in
  let lca = Sdpst.Lca.ns_lca tree (List.hd races).src (List.hd races).sink in
  let mine =
    List.filter
      (fun (r : Espbags.Race.t) -> Sdpst.Lca.ns_lca tree r.src r.sink = lca)
      races
  in
  (prog, Oracles.List_depgraph.build ~coalesce:false ~span tree lca mine)

(* Paper Figure 5: A1, A2 inside an if-block; A3, A4 outside.  Races
   A2 -> A4 and A3 -> A4. *)
let figure5 =
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

(* vertex indices in the dependence graph at the root: the if's scope is
   transparent, so vertices are [step(cond); A1; A2; A3; A4] = 0..4 *)

let test_figure5_validity () =
  let _prog, g = graph_of figure5 in
  Alcotest.(check int) "five vertices" 5 (Repair.Depgraph.n_vertices g);
  let valid ~i ~j =
    Option.is_some (Repair.Valid.insertion_for g ~i ~j)
  in
  (* wrapping A2 and A3 without A1 would cut the if-scope *)
  Alcotest.(check bool) "A2..A3 invalid" false (valid ~i:2 ~j:3);
  (* legal repairs from the paper's discussion *)
  Alcotest.(check bool) "A2 alone valid" true (valid ~i:2 ~j:2);
  Alcotest.(check bool) "A3 alone valid" true (valid ~i:3 ~j:3);
  Alcotest.(check bool) "A1..A3 valid" true (valid ~i:1 ~j:3);
  Alcotest.(check bool) "A1..A2 valid" true (valid ~i:1 ~j:2)

let test_figure5_depth_formulation_agrees () =
  let _prog, g = graph_of figure5 in
  for i = 0 to Repair.Depgraph.n_vertices g - 1 do
    for j = i to Repair.Depgraph.n_vertices g - 1 do
      let by_depth = Repair.Valid.valid_by_depths g ~i ~j in
      let by_insertion =
        Option.is_some (Repair.Valid.insertion_for g ~i ~j)
      in
      (* The direct construction refines the depth test with statement
         boundaries, so it can only be stricter. *)
      if by_insertion && not by_depth then
        Alcotest.failf "(%d,%d): insertion exists but depth test rejects" i j
    done
  done

let test_figure5_placements () =
  let _prog, g = graph_of figure5 in
  (* A2 alone: the finish lands inside the if's block *)
  (match Repair.Valid.insertion_for g ~i:2 ~j:2 with
  | Some ins ->
      Alcotest.(check bool)
        "parent is the if scope" true
        (Sdpst.Node.is_scope g.tree ins.parent)
  | None -> Alcotest.fail "A2 alone should be insertable");
  (* A1..A3: the finish must climb out to the main block, wrapping the
     whole if statement plus A3 *)
  match Repair.Valid.insertion_for g ~i:1 ~j:3 with
  | Some ins ->
      Alcotest.(check bool)
        "parent is the root" true
        (Sdpst.Node.kind g.tree ins.parent = Sdpst.Node.Root);
      Alcotest.(check int)
        "wraps two statements"
        (ins.placement.hi - ins.placement.lo)
        1
  | None -> Alcotest.fail "A1..A3 should be insertable"

let test_end_to_end_figure5 () =
  (* The whole tool on Figure 5: both races fixed, scope respected. *)
  let prog = Mhj.Front.compile figure5 in
  let report = Repair.Driver.repair prog in
  Alcotest.(check bool) "converged" true report.converged;
  let det, _ =
    Espbags.Detector.detect Espbags.Detector.Mrw report.program
  in
  Alcotest.(check int) "race-free" 0 (Espbags.Detector.race_count det);
  (* output equals the serial elision *)
  let rep = Rt.Interp.run report.program in
  let ser = Rt.Interp.run_elision prog in
  Alcotest.(check string) "semantics" ser.output rep.output

let test_decl_visibility () =
  (* wrapping must not capture a declaration used later; here the only
     race fix must avoid wrapping the decl of b *)
  let src =
    {|
var x: int = 0;
def main() {
  async { x = 1; }
  val b: int[] = new int[1];
  b[0] = x;
  print(b[0]);
}
|}
  in
  let prog = Mhj.Front.compile src in
  let report = Repair.Driver.repair prog in
  Alcotest.(check bool) "converged" true report.converged;
  (* the repaired program still type-checks and runs: decl not captured *)
  let printed = Mhj.Pretty.program_to_string report.program in
  match Mhj.Front.compile printed with
  | exception _ -> Alcotest.fail "repaired program is ill-formed"
  | reparsed ->
      let r = Rt.Interp.run reparsed in
      Alcotest.(check string) "runs" "1" (String.trim r.output)

(* The DP's dense validity table against {!Repair.Valid.insertion_for}
   on every interval of every NS-LCA group of small graphs (Figure 5 and
   Progen 1-50), probed in a scrambled order. *)
let test_checker_table () =
  let checked = ref 0 in
  let check label src =
    let prog = Mhj.Front.compile src in
    let wrap_ok = Mhj.Scopecheck.wrap_ok (Mhj.Scopecheck.build prog) in
    let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
    let tree = res.Rt.Interp.tree in
    let races = Espbags.Race.dedupe_by_steps (Espbags.Detector.races det) in
    let span, _ = Sdpst.Analysis.span_memo tree in
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (r : Espbags.Race.t) ->
        let l = Sdpst.Lca.ns_lca tree r.src r.sink in
        let rs = Option.value ~default:[] (Hashtbl.find_opt groups l) in
        Hashtbl.replace groups l (r :: rs))
      races;
    Hashtbl.iter
      (fun lca rs ->
        let g = Oracles.List_depgraph.build ~span tree lca (List.rev rs) in
        let n = Repair.Depgraph.n_vertices g in
        if n <= 40 then begin
          let valid = Repair.Valid.make_checker ~wrap_ok g in
          let cells = List.init (n * n) Fun.id in
          let scrambled =
            List.sort
              (fun a b ->
                compare ((a * 7919) mod 1009, a) ((b * 7919) mod 1009, b))
              cells
          in
          (* twice: the second pass reads the table *)
          List.iter
            (fun c ->
              let i = c / n and j = c mod n in
              if i <= j then begin
                incr checked;
                let expected =
                  Option.is_some (Repair.Valid.insertion_for ~wrap_ok g ~i ~j)
                in
                if valid ~i ~j <> expected || valid ~i ~j <> expected then
                  Alcotest.failf "%s: NS-LCA %a, interval (%d, %d)" label
                    (Sdpst.Node.pp tree) lca i j
              end)
            scrambled
        end)
      groups
  in
  check "figure 5" figure5;
  for seed = 1 to 50 do
    check (Fmt.str "progen %d" seed) (Benchsuite.Progen.generate ~seed ())
  done;
  Alcotest.(check bool)
    (Fmt.str "intervals checked (%d)" !checked)
    true (!checked > 1000)

let () =
  Alcotest.run "valid"
    [
      ( "figure5",
        [
          Alcotest.test_case "validity" `Quick test_figure5_validity;
          Alcotest.test_case "depth formulation agrees" `Quick
            test_figure5_depth_formulation_agrees;
          Alcotest.test_case "insertion points" `Quick test_figure5_placements;
          Alcotest.test_case "end-to-end repair" `Quick test_end_to_end_figure5;
        ] );
      ( "checker",
        [ Alcotest.test_case "dense table" `Quick test_checker_table ] );
      ( "declarations",
        [ Alcotest.test_case "visibility preserved" `Quick test_decl_visibility ] );
    ]
