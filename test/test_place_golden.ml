(* Placement golden.

   For a fixed corpus — the finish-stripped Table 1 programs at repair
   size and a block of Progen seeds — this test runs Driver.repair under
   both placement strategies ([`Batch] and [`Incremental]) and compares
   everything the repair decided with the lines recorded in
   place_golden.expected:

   - per iteration: the race count, the distinct step-pair count and the
     NS-LCA group count (also printed in clear on the line);
   - per group: the NS-LCA node id, the dependence graph's vertex and
     edge counts, the DP cost, whether it fell back to per-edge covers,
     and every insertion (S-DPST parent id, adopted child range and the
     static placement);
   - the converged flag, the remaining race count and the repaired
     program's text.

   Block ids come from a process-wide supply, so placements are digested
   by the rank of their block among the repaired program's blocks, which
   does not depend on what was compiled before it.

   Three corner cases of the spawn-free projection follow the Table 1
   programs: two sinks in one spawn-free loop of the NS-LCA's own task,
   a spawn-free scope whose first child is an empty scope, and stripped
   Mergesort under an S-DPST budget of 200 nodes (batch only), whose
   pruned scopes the projection must step over.

   The default corpus is the Table 1 programs, the corner cases and
   Progen seeds 1-50.  TDR_GOLDEN_DEEP=1 (the @ci rule) extends it to
   Progen seeds 1-300, checked against place_golden_deep.expected.  Run
   the executable with --print to emit the current lines in the
   expected-file format. *)

module D = Repair.Driver

let deep = Sys.getenv_opt "TDR_GOLDEN_DEEP" = Some "1"

(* Rank of every block id of [p] among the program's own block ids. *)
let bid_rank (p : Mhj.Ast.program) =
  let bl = ref [] in
  ignore
    (Mhj.Ast.map_blocks
       (fun b ->
         bl := b.bid :: !bl;
         b)
       p);
  let tbl = Hashtbl.create 64 in
  List.iteri (fun i x -> Hashtbl.replace tbl x i) (List.sort_uniq compare !bl);
  fun bid -> Option.value ~default:(-1) (Hashtbl.find_opt tbl bid)

let strategy_name = function `Batch -> "batch" | `Incremental -> "incremental"

(* One corpus entry under one option set: the clear-text counts and an
   MD5 over every placement decision. *)
let line name prog (options : Repair.Options.t) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let summary =
    match D.repair_checked ~options prog with
    | Error d ->
        add "error %s" (Repair.Diag.to_string d);
        "error"
    | Ok r ->
        let rank = bid_rank r.D.program in
        List.iteri
          (fun k (it : D.iteration) ->
            add "iteration %d races %d pairs %d groups %d" k it.n_races
              it.n_race_pairs it.n_groups;
            List.iter
              (fun (g : D.group_result) ->
                add "group %d vertices %d edges %d cost %d fell_back %b"
                  g.lca_id g.n_vertices g.n_edges g.dp_cost g.fell_back;
                List.iter
                  (fun (i : Repair.Valid.insertion) ->
                    add "insert %d %d..%d at %d:%d..%d"
                      i.parent i.child_lo i.child_hi
                      (rank i.placement.bid) i.placement.lo i.placement.hi)
                  g.insertions)
              it.groups)
          r.D.iterations;
        add "converged %b final %d" r.D.converged r.D.final_races;
        add "program %s"
          (Digest.to_hex
             (Digest.string (Mhj.Pretty.program_to_string r.D.program)));
        if r.D.iterations = [] then "-"
        else
          String.concat ","
            (List.map
               (fun (it : D.iteration) ->
                 Fmt.str "%d/%d/%d" it.n_races it.n_race_pairs it.n_groups)
               r.D.iterations)
  in
  Fmt.str "%s %s %s %s"
    (String.map (fun c -> if c = ' ' then '_' else c) name)
    (strategy_name options.placement) summary
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Two sinks in one spawn-free loop of main's task (the if-block around
   it is the loop's outermost spawn-free scope), and two in one
   iteration of a loop whose iterations are scopes of main. *)
let sinks_in_one_loop =
  {|
var x: int = 0;
var y: int = 0;
var z: int = 0;
def main() {
  async { x = 1; work(3); }
  async { y = 2; work(5); }
  work(2);
  if (x >= 0) {
    for (i = 0 to 3) {
      work(1);
      if (i == 1) { print(x); }
      if (i == 2) { print(y); }
    }
  }
  async { z = 1; work(7); }
  for (i = 0 to 1) {
    if (i >= 0) { print(z); }
    work(2);
    print(x + y);
  }
}
|}

(* A spawn-free block whose first child is an empty block: its sinks'
   representative is the step after the empty scope. *)
let empty_first_scope =
  {|
var x: int = 0;
var y: int = 0;
def main() {
  async { x = 1; work(4); }
  { { } work(2); print(x); { } print(x + 1); }
  async { y = x; }
  { { } { print(y); } work(1); }
}
|}

let both = [ `Batch; `Incremental ]

let with_placement placement = { Repair.Options.default with placement }

(* The corpus, in a fixed order: (name, program thunk, option sets). *)
let corpus () =
  let defaults = List.map with_placement both in
  let table1 =
    List.map
      (fun (b : Benchsuite.Bench.t) ->
        ( b.name ^ "/stripped",
          (fun () -> Benchsuite.Bench.stripped_program b),
          defaults ))
      Benchsuite.Suite.all
  in
  let compiled src () = Mhj.Front.compile src in
  let corners =
    [
      ("corner/sinks-in-one-loop", compiled sinks_in_one_loop, defaults);
      ("corner/empty-first-scope", compiled empty_first_scope, defaults);
      ( "corner/Mergesort-sdpst200",
        (fun () ->
          Benchsuite.Bench.stripped_program
            (Option.get (Benchsuite.Suite.find "Mergesort"))),
        [
          {
            (with_placement `Batch) with
            budgets =
              { Repair.Guard.unlimited with sdpst_nodes = Some 200 };
          };
        ] );
    ]
  in
  let seeds = if deep then 300 else 50 in
  table1 @ corners
  @ List.init seeds (fun i ->
        let seed = i + 1 in
        ( Fmt.str "progen/%d" seed,
          compiled (Benchsuite.Progen.generate ~seed ()),
          defaults ))

let lines () =
  List.concat_map
    (fun (name, prog, option_sets) ->
      let p = prog () in
      List.map (line name p) option_sets)
    (corpus ())

let expected_file =
  if deep then "place_golden_deep.expected" else "place_golden.expected"

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
        | n :: s :: _ -> n ^ " " ^ s
        | _ -> e
      in
      Alcotest.(check string) name e a)
    expected actual

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter print_endline (lines ())
  else
    Alcotest.run "place-golden"
      [
        ( "placement",
          [
            Alcotest.test_case
              (if deep then "deep corpus placements" else "corpus placements")
              `Quick test_golden;
          ] );
      ]
