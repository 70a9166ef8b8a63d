(* Tournament golden.

   For a fixed corpus — the four strategy programs of the perfbench
   tournament workload, nine finish-stripped Table 1 programs at repair
   size and Progen seeds 1-50 — this test runs [Strategy.run `Tournament]
   under the default options and under incremental placement with a
   50-node S-DPST budget, and compares what the tournament decided with
   the lines recorded in strategy_golden.expected:

   - per candidate, in the outcome's order: its kind, whether it
     produced a program and verified, its rounds, its CPL, work and
     makespan, and its note;
   - the winner's kind and an MD5 of its pretty-printed program, or the
     diagnostic the tournament ended with.

   The incremental run splices finishes into the S-DPST it places on and
   the budget prunes it, so this golden also pins that no candidate
   reads a tree another candidate has changed.

   The other three Table 1 programs, Mergesort, Mandelbrot and FannKuch,
   have the slowest tournaments: TDR_GOLDEN_CI=1 (the @ci rule) runs
   those instead, checked against strategy_golden_ci.expected.  Run the executable with --print to emit
   the current lines in the expected-file format. *)

module S = Repair.Strategy
module Score = Compgraph.Score

let ci = Sys.getenv_opt "TDR_GOLDEN_CI" = Some "1"

let slow = [ "Mergesort"; "Mandelbrot"; "FannKuch" ]

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

let modes =
  [
    ("default", Repair.Options.default);
    ( "incremental-sdpst50",
      {
        Repair.Options.default with
        placement = `Incremental;
        budgets = { Repair.Guard.unlimited with sdpst_nodes = Some 50 };
      } );
  ]

(* The lines of one corpus entry under one option set. *)
let lines_of name prog (mode, options) =
  let name = String.map (fun c -> if c = ' ' then '_' else c) name in
  let prefix = Fmt.str "%s %s" name mode in
  match S.run ~options `Tournament prog with
  | o ->
      List.map
        (fun (c : S.candidate) ->
          let cpl, work, makespan =
            match c.score with
            | Some s -> (s.Score.cpl, s.Score.work, s.Score.makespan)
            | None -> (-1, -1, -1)
          in
          Fmt.str
            "%s %s produced %b verified %b rounds %d cpl %d work %d \
             makespan %d note %S"
            prefix (S.kind_name c.kind) (c.program <> None) c.verified
            c.rounds cpl work makespan c.note)
        o.S.candidates
      @ [
          Fmt.str "%s winner %s program %s" prefix
            (S.kind_name o.S.winner.kind)
            (Digest.to_hex
               (Digest.string (Mhj.Pretty.program_to_string o.S.program)));
        ]
  | exception Repair.Driver.Unrepairable m ->
      [ Fmt.str "%s unrepairable %S" prefix m ]
  | exception e -> (
      match Repair.Diag.of_exn e with
      | Some d ->
          [ Fmt.str "%s error %S" prefix (Repair.Diag.to_string d) ]
      | None -> raise e)

(* The corpus, in a fixed order: (name, program thunk). *)
let corpus () =
  let strategy =
    List.map
      (fun (name, src) -> (name, fun () -> Mhj.Front.compile src))
      [
        ("fib", fib_src);
        ("reduce", accumulate_src ~helper:"heavy" ~init:0 ~iters:7 ~reps:255);
        ("series", accumulate_src ~helper:"poly" ~init:1 ~iters:11 ~reps:127);
        ("stencil", stencil_src ~reps:127);
      ]
  in
  let table1 =
    List.filter_map
      (fun (b : Benchsuite.Bench.t) ->
        if List.mem b.name slow <> ci then None
        else
          Some
            (b.name ^ "/stripped", fun () -> Benchsuite.Bench.stripped_program b))
      Benchsuite.Suite.all
  in
  let seeds =
    List.init 50 (fun i ->
        let seed = i + 1 in
        ( Fmt.str "progen/%d" seed,
          fun () -> Mhj.Front.compile (Benchsuite.Progen.generate ~seed ()) ))
  in
  if ci then table1 else strategy @ table1 @ seeds

let lines () =
  List.concat_map
    (fun (name, prog) ->
      let p = prog () in
      List.concat_map (lines_of name p) modes)
    (corpus ())

let expected_file =
  if ci then "strategy_golden_ci.expected" else "strategy_golden.expected"

let read_expected () =
  let ic = open_in expected_file in
  let rec go acc =
    match input_line ic with
    | l -> go (if l = "" || l.[0] = '#' then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_golden () =
  let expected = read_expected () in
  let actual = lines () in
  Alcotest.(check int) "corpus size" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      let name =
        match String.split_on_char ' ' e with
        | n :: m :: k :: _ -> String.concat " " [ n; m; k ]
        | _ -> e
      in
      Alcotest.(check string) name e a)
    expected actual

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (lines ())
  else
    Alcotest.run "strategy-golden"
      [
        ( "tournament",
          [
            Alcotest.test_case
              (if ci then "slow Table 1 tournaments" else "corpus tournaments")
              `Quick test_golden;
          ] );
      ]
