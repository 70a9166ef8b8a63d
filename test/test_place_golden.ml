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

   The default corpus is the Table 1 programs and Progen seeds 1-50.
   TDR_GOLDEN_DEEP=1 (the @ci rule) extends it to Progen seeds 1-300,
   checked against place_golden_deep.expected.  Run the executable with
   --print to emit the current lines in the expected-file format. *)

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

(* One corpus entry under one strategy: the clear-text counts and an MD5
   over every placement decision. *)
let line name prog strategy =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let summary =
    match D.repair_checked
            ~options:{ Repair.Options.default with placement = strategy }
            prog with
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
    (strategy_name strategy) summary
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The corpus, in a fixed order: (name, program thunk). *)
let corpus () =
  let table1 =
    List.map
      (fun (b : Benchsuite.Bench.t) ->
        (b.name ^ "/stripped", fun () -> Benchsuite.Bench.stripped_program b))
      Benchsuite.Suite.all
  in
  let seeds = if deep then 300 else 50 in
  table1
  @ List.init seeds (fun i ->
        let seed = i + 1 in
        ( Fmt.str "progen/%d" seed,
          fun () -> Mhj.Front.compile (Benchsuite.Progen.generate ~seed ()) ))

let lines () =
  List.concat_map
    (fun (name, prog) ->
      let p = prog () in
      [ line name p `Batch; line name p `Incremental ])
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
