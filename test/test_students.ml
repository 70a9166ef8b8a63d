(* The paper's §7.4 student-homework experiment: 59 quicksort submissions
   classified as 5 racy / 29 over-synchronized / 25 matching the tool. *)

let test_counts () =
  let summary, _ = Benchsuite.Students.grade_all ~n:48 () in
  Alcotest.(check int) "racy" 5 summary.racy;
  Alcotest.(check int) "over-synchronized" 29 summary.oversync;
  Alcotest.(check int) "optimal" 25 summary.optimal;
  Alcotest.(check int) "generator labels all confirmed" 0 summary.mismatches

let test_deterministic () =
  let subs1 = Benchsuite.Students.submissions ~n:48 () in
  let subs2 = Benchsuite.Students.submissions ~n:48 () in
  Alcotest.(check int) "59 submissions" 59 (List.length subs1);
  List.iter2
    (fun (a : Benchsuite.Students.submission) (b : Benchsuite.Students.submission) ->
      Alcotest.(check string) "same source" a.src b.src)
    subs1 subs2

let test_verdict_details () =
  let _, verdicts = Benchsuite.Students.grade_all ~n:48 () in
  List.iter
    (fun ({ marks = v; _ } : Benchsuite.Students.verdict) ->
      match v.graded with
      | Benchsuite.Students.Racy ->
          if v.races = 0 then Alcotest.fail "racy verdict without races"
      | Benchsuite.Students.Oversync ->
          if not (v.races = 0 && v.cpl > v.tool_cpl) then
            Alcotest.fail "oversync verdict inconsistent"
      | Benchsuite.Students.Optimal ->
          if not (v.races = 0 && v.cpl <= v.tool_cpl) then
            Alcotest.fail "optimal verdict inconsistent")
    verdicts

(* Two isolated sections race on [x]: grading discharges the reports by
   mutual exclusion, as [Driver.detect] does, so the submission is race
   free and as parallel as the tool's repair. *)
let test_isolated_discharged () =
  let src =
    {|var x: int = 0;
def main() {
  finish {
    async { isolated { x = x + 1; } }
    async { isolated { x = x + 2; } }
  }
  print(x);
}
|}
  in
  let v =
    (Benchsuite.Students.grade
       { Benchsuite.Students.id = 0; expected = Optimal; src })
      .marks
  in
  Alcotest.(check int) "no surviving race" 0 v.races;
  Alcotest.(check bool) "graded optimal" true
    (v.graded = Benchsuite.Students.Optimal)

let () =
  Alcotest.run "students"
    [
      ( "grading",
        [
          Alcotest.test_case "paper counts (5/29/25)" `Quick test_counts;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "verdict consistency" `Quick test_verdict_details;
          Alcotest.test_case "isolated discharged" `Quick
            test_isolated_discharged;
        ] );
    ]
