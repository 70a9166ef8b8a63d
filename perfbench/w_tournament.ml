(* tournament: `Strategy.run `Tournament` (finish insertion, isolated
   sections, async elision, loop chunking; each candidate verified and
   scored on the critical-path simulator) on the four strategy programs
   of `bench strategies` and on finish-stripped Table 1 programs.  It
   drives the same detection and placement layers as table1-repair, but
   as many short verify runs on rewritten programs plus Compgraph
   scoring, so an optimisation aimed at finish-only repair shows here as
   no change or as a cost.  The seed fixes the order of the programs. *)

module H = Harness
module S = Repair.Strategy
module Score = Compgraph.Score

(* The `bench strategies` suite: fib (finish wins), reduce and series
   (isolated wins), stencil (chunking wins). *)
let fib_src =
  {|
def fib(ret: int[], reti: int, n: int) {
  if (n < 2) { ret[reti] = n; return; }
  val x: int[] = new int[1];
  val y: int[] = new int[1];
  async fib(x, 0, n - 1);
  async fib(y, 0, n - 2);
  ret[reti] = x[0] + y[0];
}
def main() {
  val r: int[] = new int[1];
  async fib(r, 0, 8);
  print(r[0]);
}
|}

let accumulate_src ~helper ~init ~iters ~reps =
  Fmt.str
    {|
def %s(n: int): int {
  var acc: int = %d;
  for (j = 0 to %d) { acc = acc + n + j; }
  return acc;
}
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to %d) {
      async {
        val v: int = %s(i);
        sum[0] = sum[0] + v;
      }
    }
  }
  print(sum[0]);
}
|}
    helper init reps iters helper

let stencil_src ~reps =
  Fmt.str
    {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to %d) { acc = acc + n + j; }
  return acc;
}
def main() {
  val a: int[] = new int[16];
  finish {
    for (i = 0 to 15) {
      async {
        if (i < 8) { a[i] = heavy(a[i + 8]); }
        else { a[i] = heavy(i); }
      }
    }
  }
  var s: int = 0;
  for (k = 0 to 15) { s = s + a[k]; }
  print(s);
}
|}
    reps

(* Table 1 programs whose tournament takes at most ~0.3 s, so a run has
   several passes; Mergesort (~1.6 s), Mandelbrot (~1.0 s) and FannKuch
   (~0.5 s) are left out. *)
let table1_names =
  [
    "Fibonacci"; "Quicksort"; "Spanning Tree"; "Nqueens"; "Series"; "SOR";
    "Crypt"; "Sparse"; "LUFact";
  ]

let sources () =
  [
    ("fib", fib_src);
    ("reduce", accumulate_src ~helper:"heavy" ~init:0 ~iters:7 ~reps:255);
    ("series", accumulate_src ~helper:"poly" ~init:1 ~iters:11 ~reps:127);
    ("stencil", stencil_src ~reps:127);
  ]
  @ List.map
      (fun name ->
        let b = Option.get (Benchsuite.Suite.find name) in
        ( name,
          Mhj.Pretty.program_to_string (Benchsuite.Bench.stripped_program b)
        ))
      table1_names

type input = {
  name : string;
  prog : Mhj.Ast.program;
  racy_parallelism : float;
  mutable winner : (S.kind * int) option;  (** from the warm-up *)
}

let choices : (string * S.choice) list =
  [
    ("finish", `Finish);
    ("isolated", `Isolated);
    ("elide", `Elide);
    ("chunk", `Chunk);
  ]

let cpl (c : S.candidate) = Option.map (fun s -> s.Score.cpl) c.S.score

(* The traced pass splits a tournament into its parts: the expected
   output run, scoring, and each strategy run alone.  Returns the
   minimum CPL over the verified single-strategy runs. *)
let staged (i : input) =
  let res = H.span "strategy.expected" (fun () -> Rt.Interp.run i.prog) in
  ignore
    (H.span "compgraph.score" (fun () -> Score.of_tree res.Rt.Interp.tree));
  List.fold_left
    (fun best (name, choice) ->
      H.count "strategy.attempted" 1.;
      match H.span ("strategy." ^ name) (fun () -> S.run choice i.prog) with
      | o ->
          H.count "strategy.verified" 1.;
          Option.fold ~none:best ~some:(fun c -> min c best) (cpl o.S.winner)
      | exception Repair.Driver.Unrepairable _ -> best)
    max_int
    choices

let setup ~seed =
  let compile_s = ref 0. in
  let inputs =
    List.map
      (fun (name, src) ->
        let prog, dt = H.time (fun () -> Mhj.Front.compile src) in
        compile_s := !compile_s +. dt;
        let original = Score.of_tree (Rt.Interp.run prog).Rt.Interp.tree in
        {
          name;
          prog;
          racy_parallelism = original.Score.parallelism;
          winner = None;
        })
      (H.shuffle ~seed (sources ()))
  in
  let retained = ref [] and cpl_ratios = ref [] in
  let pass ~full =
    List.fold_left
      (fun total i ->
        if !H.tracing then begin
          let best, dt = H.op ~input:i.name (fun () -> staged i) in
          H.check ~input:i.name
            (Option.map snd i.winner = Some best)
            "best single strategy differs from the tournament winner";
          total +. dt
        end
        else
          let o, dt =
            H.op ~input:i.name (fun () -> S.run `Tournament i.prog)
          in
          let w = o.S.winner in
          let fin_cpl =
            List.find_map
              (fun (c : S.candidate) ->
                if c.kind = S.Finish && c.verified then cpl c else None)
              o.S.candidates
          in
          let not_worse =
            match (cpl w, fin_cpl) with
            | Some wc, Some fc -> wc <= fc
            | Some _, None -> true
            | None, _ -> false
          in
          let result = Option.map (fun c -> (w.S.kind, c)) (cpl w) in
          if full then begin
            i.winner <- result;
            Option.iter
              (fun (s : Score.t) ->
                retained := (s.parallelism /. i.racy_parallelism) :: !retained)
              w.S.score;
            match (cpl w, fin_cpl) with
            | Some wc, Some fc ->
                cpl_ratios :=
                  (float_of_int wc /. float_of_int (max 1 fc)) :: !cpl_ratios
            | _ -> ()
          end;
          H.check ~input:i.name
            (w.S.verified && not_worse && result = i.winner)
            "winner unverified, worse than finish, or changed";
          total +. dt)
      0. inputs
  in
  {
    H.pass;
    probe = ignore;
    values =
      (fun () ->
        [
          ("cpl_ratio", H.geomean !cpl_ratios);
          ("retained_parallelism", H.geomean !retained);
          ("mhj.compile_s", !compile_s);
        ]);
    derived = (fun () -> []);
    peak_rss_mb = H.self_peak_rss_mb;
    teardown = ignore;
  }
