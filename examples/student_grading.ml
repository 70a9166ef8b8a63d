(* The paper's §7.4 experiment: automated grading of a parallel-computing
   homework.  59 student submissions of a "insert the finish statements
   into this parallel quicksort" exercise are classified by the tool into
   racy / over-synchronized / matching the tool's repair (paper counts:
   5 / 29 / 25).

   Our synthetic submission generator reproduces the three mistake
   classes; the grader is the real pipeline (detector + repair + critical
   path comparison).

   Run with: dune exec examples/student_grading.exe *)

let () =
  Fmt.pr "grading 59 quicksort submissions (paper §7.4)...@.@.";
  let summary, verdicts = Benchsuite.Students.grade_all ~n:64 () in
  List.iter
    (fun ({ submission; marks = m } : Benchsuite.Students.verdict) ->
      Fmt.pr "  submission %02d: %-17s (races: %3d, CPL: %5d, tool CPL: %5d)@."
        submission.id
        (Fmt.str "%a" Benchsuite.Students.pp_expected m.graded)
        m.races m.cpl m.tool_cpl)
    verdicts;
  Fmt.pr "@.summary: %d racy, %d over-synchronized, %d matched the tool@."
    summary.racy summary.oversync summary.optimal;
  Fmt.pr "paper:    5 racy, 29 over-synchronized, 25 matched the tool@.";
  if summary.mismatches = 0 then
    Fmt.pr "every submission was classified as its generator intended@."
  else
    Fmt.pr "WARNING: %d generator/grader mismatches@." summary.mismatches
