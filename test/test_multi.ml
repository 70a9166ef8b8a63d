(* Multi-input repair (paper §2): a race that only manifests for some
   inputs is missed by a single unlucky test but caught by the input set;
   placements merge into one program that is race-free for every input. *)

(* The race in the flag-guarded branch exists only when [mode] is 1;
   the race in the tail exists only when [count] is large enough to
   enter the loop. *)
let src =
  {|
var mode: int = 0;
var count: int = 0;
var x: int = 0;
var a: int[] = new int[8];

def main() {
  if (mode == 1) {
    async { x = 1; }
    print(x);
  }
  for (i = 0 to count - 1) {
    async { a[i] = i; }
  }
  var s: int = 0;
  for (i = 0 to 7) { s = s + a[i]; }
  print(s);
}
|}

let races prog =
  Espbags.Detector.race_count
    (fst (Espbags.Detector.detect Espbags.Detector.Mrw prog))

let with_input prog overrides =
  List.fold_left
    (fun p (g, v) -> Mhj.Transform.set_global_int p g v)
    prog overrides

let test_single_input_misses () =
  let prog = Mhj.Front.compile src in
  (* the weak input exposes no race at all *)
  let weak = with_input prog [ ("mode", 0); ("count", 0) ] in
  Alcotest.(check int) "weak input sees nothing" 0 (races weak);
  let report = Repair.Driver.repair weak in
  Alcotest.(check int) "so single-input repair inserts nothing" 0
    (List.length (Repair.Driver.total_placements report));
  (* but the strong inputs do race *)
  Alcotest.(check bool) "mode=1 races" true
    (races (with_input prog [ ("mode", 1) ]) > 0);
  Alcotest.(check bool) "count=4 races" true
    (races (with_input prog [ ("count", 4) ]) > 0)

let test_repair_multi () =
  let prog = Mhj.Front.compile src in
  let inputs =
    [
      ("weak", [ ("mode", 0); ("count", 0) ]);
      ("branch", [ ("mode", 1); ("count", 0) ]);
      ("loop", [ ("mode", 0); ("count", 4) ]);
    ]
  in
  let m = Repair.Driver.repair_multi ~inputs prog in
  Alcotest.(check bool) "all inputs converged" true m.all_converged;
  (* the final program is race-free under every input *)
  List.iter
    (fun (label, overrides) ->
      Alcotest.(check int)
        (label ^ " race-free")
        0
        (races (with_input m.final overrides)))
    inputs;
  (* both conditional races got their finishes *)
  Alcotest.(check int) "two finishes inserted" 2
    (Mhj.Ast.count_finishes m.final);
  (* semantics preserved for each input *)
  List.iter
    (fun (_, overrides) ->
      let ser = Rt.Interp.run_elision (with_input prog overrides) in
      let rep = Rt.Interp.run (with_input m.final overrides) in
      Alcotest.(check string) "same output" ser.output rep.output)
    inputs

let test_multi_coverage () =
  let prog = Mhj.Front.compile src in
  (* weak input alone leaves asyncs uncovered; the full set covers all *)
  let weak_only =
    Repair.Driver.repair_multi
      ~inputs:[ ("weak", [ ("mode", 0); ("count", 0) ]) ]
      prog
  in
  Alcotest.(check bool) "weak leaves async coverage gaps" true
    (Repair.Coverage.async_coverage weak_only.coverage < 1.0);
  let full =
    Repair.Driver.repair_multi
      ~inputs:
        [
          ("branch", [ ("mode", 1); ("count", 0) ]);
          ("loop", [ ("mode", 0); ("count", 8) ]);
        ]
      prog
  in
  Alcotest.(check int) "full set covers every async"
    full.coverage.total_asyncs full.coverage.covered_asyncs

(* One input crashes mid-pipeline (its count drives the loop past the
   array bound); the other inputs must still be repaired and the combined
   report must name the failure. *)
let test_multi_partial_failure () =
  let prog = Mhj.Front.compile src in
  let inputs =
    [
      ("branch", [ ("mode", 1); ("count", 0) ]);
      ("crash", [ ("mode", 0); ("count", 20) ]);
      ("loop", [ ("mode", 0); ("count", 4) ]);
    ]
  in
  let m = Repair.Driver.repair_multi ~inputs prog in
  (match m.failures with
  | [ (label, d) ] ->
      Alcotest.(check string) "failed input is labelled" "crash" label;
      Alcotest.(check bool) "interp-stage diagnostic" true
        (d.Repair.Diag.stage = Repair.Diag.Interp);
      Alcotest.(check bool) "diagnostic is located" true
        (match d.Repair.Diag.loc with
        | Some l -> not (Mhj.Loc.is_dummy l)
        | None -> false)
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  Alcotest.(check bool) "combined report flags the failure" false
    m.all_converged;
  Alcotest.(check int) "other inputs still processed" 2
    (List.length m.per_input);
  List.iter
    (fun (label, overrides) ->
      if label <> "crash" then
        Alcotest.(check int)
          (label ^ " race-free")
          0
          (races (with_input m.final overrides)))
    inputs;
  Alcotest.(check int) "both finishes inserted" 2
    (Mhj.Ast.count_finishes m.final)

(* A fuel budget only the cheap input fits under: the heavy input lands in
   failures with a budget-stage diagnostic; the cheap one still converges. *)
let test_multi_budget_exhaustion () =
  let prog = Mhj.Front.compile src in
  let cheap = [ ("mode", 1); ("count", 0) ] in
  let heavy = [ ("mode", 0); ("count", 8) ] in
  (* fuel also covers global-initializer setup that [work] excludes, so
     probe for the actual threshold of each input *)
  let fuel_needed ov =
    let p = with_input prog ov in
    let rec go f =
      match Rt.Interp.run ~fuel:f p with
      | _ -> f
      | exception Rt.Interp.Out_of_fuel -> go (f + 1)
    in
    go (Rt.Interp.run p).work
  in
  let f_cheap = fuel_needed cheap and f_heavy = fuel_needed heavy in
  Alcotest.(check bool) "inputs differ in cost" true (f_cheap < f_heavy);
  let budgets =
    { Repair.Guard.unlimited with Repair.Guard.fuel = Some ((f_cheap + f_heavy) / 2) }
  in
  let m =
    Repair.Driver.repair_multi ~options:{ Repair.Options.default with budgets }
      ~inputs:[ ("cheap", cheap); ("heavy", heavy) ]
      prog
  in
  (match m.failures with
  | [ ("heavy", d) ] ->
      Alcotest.(check bool) "budget-stage diagnostic" true
        (d.Repair.Diag.stage = Repair.Diag.Budget)
  | _ -> Alcotest.fail "expected exactly the heavy input to fail");
  Alcotest.(check bool) "not all converged" false m.all_converged;
  Alcotest.(check int) "cheap input repaired" 0
    (races (with_input m.final cheap))

let test_set_global_errors () =
  let prog = Mhj.Front.compile src in
  Alcotest.(check bool) "unknown global rejected" true
    (match Mhj.Transform.set_global_int prog "nope" 1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let p2 = Mhj.Front.compile "var f: float = 1.0;\ndef main() { print(f); }" in
  Alcotest.(check bool) "non-int global rejected" true
    (match Mhj.Transform.set_global_int p2 "f" 1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "multi"
    [
      ( "multi-input",
        [
          Alcotest.test_case "single input misses" `Quick
            test_single_input_misses;
          Alcotest.test_case "repair_multi fixes all" `Quick test_repair_multi;
          Alcotest.test_case "combined coverage" `Quick test_multi_coverage;
          Alcotest.test_case "partial failure" `Quick
            test_multi_partial_failure;
          Alcotest.test_case "budget exhaustion" `Quick
            test_multi_budget_exhaustion;
          Alcotest.test_case "set_global errors" `Quick
            test_set_global_errors;
        ] );
    ]
