(** Synthetic student homework submissions (paper §7.4).

    The paper evaluated 59 student submissions of a manual finish-insertion
    exercise on a parallel quicksort: 5 still had data races, 29 were
    over-synchronized, and 25 matched the tool's repair.  The original
    submissions are course data we cannot obtain, so this module generates
    59 deterministic quicksort variants spanning the same mistake classes:

    - {e racy}: finish statements that miss at least one race (including
      the empty placement);
    - {e over-synchronized}: race-free but with less parallelism than the
      tool's repair (e.g. a finish around each async separately, which
      serializes the two recursive sorts);
    - {e optimal}: race-free with the same critical path length as the
      tool's repair.

    The grader classifies a submission exactly the way the paper does:
    run the detector (races remain?), then compare available parallelism
    against the tool-repaired program. *)

type expected = Racy | Oversync | Optimal

let pp_expected ppf = function
  | Racy -> Fmt.string ppf "racy"
  | Oversync -> Fmt.string ppf "over-synchronized"
  | Optimal -> Fmt.string ppf "optimal"

type submission = { id : int; expected : expected; src : string }

(* The quicksort skeleton each "student" started from: asyncs present, all
   finish placement left to them.  The holes are spliced per variant:
   [rec1]/[rec2] wrap the recursive asyncs, [call] wraps the root call. *)
let template ~n ~seed ~wrap_rec_both ~wrap_rec1 ~wrap_rec2 ~wrap_call
    ~extra_partition_finish ?(wrap_fill = false) ?(double_wrap_rec = false)
    () =
  let fin b s = if b then "finish { " ^ s ^ " }" else s in
  let rec_block =
    if double_wrap_rec then
      "finish { finish {\n      async quicksort(a, m, j);\n      async \
       quicksort(a, i, n);\n    } }"
    else if wrap_rec_both then
      "finish {\n      async quicksort(a, m, j);\n      async quicksort(a, i, n);\n    }"
    else
      Fmt.str "%s\n      %s"
        (fin wrap_rec1 "async quicksort(a, m, j);")
        (fin wrap_rec2 "async quicksort(a, i, n);")
  in
  let fill_loop =
    fin wrap_fill
      "for (k = 0 to alen(a) - 1) { x = (x * 1103515 + 12345) % 100000; a[k] \
       = x; }"
  in
  Fmt.str
    {|
def partition(a: int[], m: int, n: int, out: int[]) {
  val pivot: int = a[(m + n) / 2];
  var i: int = m;
  var j: int = n;
  while (i <= j) {
    while (a[i] < pivot) { i = i + 1; }
    while (a[j] > pivot) { j = j - 1; }
    if (i <= j) {
      val t: int = a[i];
      a[i] = a[j];
      a[j] = t;
      i = i + 1;
      j = j - 1;
    }
  }
  out[0] = i;
  out[1] = j;
}

def quicksort(a: int[], m: int, n: int) {
  if (m < n) {
    val p: int[] = new int[2];
    %s
    val i: int = p[0];
    val j: int = p[1];
    %s
  }
}

def main() {
  val a: int[] = new int[%d];
  var x: int = %d;
  %s
  %s
  var bad: int = 0;
  for (k = 0 to alen(a) - 2) {
    if (a[k] > a[k + 1]) { bad = bad + 1; }
  }
  print(bad);
}
|}
    (fin extra_partition_finish "partition(a, m, n, p);")
    rec_block n seed fill_loop
    (fin wrap_call "quicksort(a, 0, alen(a) - 1);")

(** The 59 submissions, deterministic, in the paper's class proportions
    (5 racy / 29 over-synchronized / 25 optimal). *)
let submissions ?(n = 120) () : submission list =
  let mk id expected ~wrap_rec_both ~wrap_rec1 ~wrap_rec2 ~wrap_call
      ~extra_partition_finish ?wrap_fill ?double_wrap_rec ~seed () =
    {
      id;
      expected;
      src =
        template ~n ~seed ~wrap_rec_both ~wrap_rec1 ~wrap_rec2 ~wrap_call
          ~extra_partition_finish ?wrap_fill ?double_wrap_rec ();
    }
  in
  let racy id seed variant =
    (* placements that leave at least one race *)
    match variant with
    | 0 ->
        (* no finish anywhere *)
        mk id Racy ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:false ~seed ()
    | 1 ->
        (* only the first recursive async wrapped *)
        mk id Racy ~wrap_rec_both:false ~wrap_rec1:true ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:false ~seed ()
    | 2 ->
        (* only the second recursive async wrapped *)
        mk id Racy ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:true
          ~wrap_call:false ~extra_partition_finish:false ~seed ()
    | 3 ->
        (* a useless finish around the (synchronous) partition call *)
        mk id Racy ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:true ~seed ()
    | _ ->
        (* a useless finish around the (synchronous) fill call *)
        mk id Racy ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:false ~wrap_fill:true
          ~seed ()
  in
  let oversync id seed variant =
    match variant with
    | 0 ->
        (* finish around each async separately: serializes the recursion *)
        mk id Oversync ~wrap_rec_both:false ~wrap_rec1:true ~wrap_rec2:true
          ~wrap_call:false ~extra_partition_finish:false ~seed ()
    | 1 ->
        (* both of the above plus the root call: correct but doubly serial *)
        mk id Oversync ~wrap_rec_both:false ~wrap_rec1:true ~wrap_rec2:true
          ~wrap_call:true ~extra_partition_finish:false ~seed ()
    | _ ->
        (* serialized recursion with a useless partition finish on top *)
        mk id Oversync ~wrap_rec_both:false ~wrap_rec1:true ~wrap_rec2:true
          ~wrap_call:false ~extra_partition_finish:true ~seed ()
  in
  let optimal id seed variant =
    match variant with
    | 0 ->
        (* finish around both recursive asyncs together *)
        mk id Optimal ~wrap_rec_both:true ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:false ~seed ()
    | 1 ->
        (* single finish around the root call *)
        mk id Optimal ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:true ~extra_partition_finish:false ~seed ()
    | 2 ->
        (* both (redundant but still maximal parallelism) *)
        mk id Optimal ~wrap_rec_both:true ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:true ~extra_partition_finish:false ~seed ()
    | 3 ->
        (* a doubled (idempotent) finish around the recursion *)
        mk id Optimal ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:false ~extra_partition_finish:false ~double_wrap_rec:true
          ~seed ()
    | _ ->
        (* root finish plus a harmless synchronous-call finish *)
        mk id Optimal ~wrap_rec_both:false ~wrap_rec1:false ~wrap_rec2:false
          ~wrap_call:true ~extra_partition_finish:true ~seed ()
  in
  let out = ref [] in
  let id = ref 0 in
  let add f count =
    for k = 0 to count - 1 do
      incr id;
      (* vary the seed so submissions are distinct programs *)
      out := f !id (1000 + (37 * !id)) k :: !out
    done
  in
  add (fun id seed k -> racy id seed (k mod 5)) 5;
  add (fun id seed k -> oversync id seed (k mod 3)) 29;
  add (fun id seed k -> optimal id seed (k mod 5)) 25;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Grading                                                             *)
(* ------------------------------------------------------------------ *)

type marks = {
  graded : expected;  (** the tool's classification *)
  races : int;  (** race reports surviving isolated discharge *)
  cpl : int;  (** the program's critical path length *)
  tool_cpl : int;  (** critical path length of the tool's repair *)
}

(** Grade one program: detect races as every other caller does
    ({!Repair.Driver.detect}, isolated sections discharged); compare the
    critical path length against the tool-repaired version of the same
    program with all finishes stripped (i.e. what the tool would have
    produced from the same starting point). *)
let mark (prog : Mhj.Ast.program) : Repair.Driver.detection * marks =
  let d = Repair.Driver.detect Repair.Options.default prog in
  let stripped = Mhj.Transform.strip_finishes prog in
  let repaired = (Repair.Driver.repair stripped).program in
  let tool_res = Rt.Interp.run repaired in
  let tool_cpl = Sdpst.Analysis.critical_path_length tool_res.tree in
  let races = Espbags.Race.Pairs.n_races (Lazy.force d.pairs) in
  let cpl = Sdpst.Analysis.critical_path_length d.run.result.tree in
  let graded =
    if races > 0 then Racy else if cpl > tool_cpl then Oversync else Optimal
  in
  (d, { graded; races; cpl; tool_cpl })

type verdict = { submission : submission; marks : marks }

let grade (s : submission) : verdict =
  { submission = s; marks = snd (mark (Mhj.Front.compile s.src)) }

type summary = { racy : int; oversync : int; optimal : int; mismatches : int }

(** Grade the whole class; the paper's counts are 5 / 29 / 25. *)
let grade_all ?n () : summary * verdict list =
  let verdicts = List.map grade (submissions ?n ()) in
  let count c =
    List.length (List.filter (fun v -> v.marks.graded = c) verdicts)
  in
  let mismatches =
    List.length
      (List.filter (fun v -> v.marks.graded <> v.submission.expected) verdicts)
  in
  ( {
      racy = count Racy;
      oversync = count Oversync;
      optimal = count Optimal;
      mismatches;
    },
    verdicts )
