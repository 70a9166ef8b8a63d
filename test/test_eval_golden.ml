(* Evaluator equivalence golden.

   For a fixed corpus — the Table 1 suite (expert and finish-stripped)
   and a block of Progen seeds — this test digests everything an
   execution makes observable and compares it with the digests recorded
   in eval_golden.expected:

   - under Rt.Interp.run: the full Monitor event stream (node ids; for
     accesses the step id, block id, statement index, interned address
     and kind), the output, the work, the final globals and a pre-order
     dump of the S-DPST (id, kind, sid, origin block/index, last index,
     cost);
   - under Par.Engine.run ~mode:(Fuzz {seed}) for seeds 1-5: the
     output, the globals digest, the work and the Fuzz scheduler
     counters.

   Any change to decision-point order, step boundaries, cost charging or
   access reporting changes a digest.  Block and statement ids come from
   a process-wide supply, so they are digested by their rank within the
   program, which does not depend on what was compiled before it.

   The default corpus is the Table 1 programs at repair size and Progen
   seeds 1-50.  TDR_GOLDEN_DEEP=1 (the @ci rule) selects the deep corpus
   instead: the full-size Table 1 programs and Progen seeds 1-300,
   checked against eval_golden_deep.expected.  Run the executable with
   --print to emit the current digests in the expected-file format. *)

let deep = Sys.getenv_opt "TDR_GOLDEN_DEEP" = Some "1"

(* Chained MD5 over a stream of strings, so million-event streams do not
   have to be held in memory. *)
module Hasher = struct
  type t = { buf : Buffer.t; mutable acc : string }

  let create () = { buf = Buffer.create 65536; acc = "" }

  let flush h =
    h.acc <- Digest.string (h.acc ^ Buffer.contents h.buf);
    Buffer.clear h.buf

  let add h s =
    Buffer.add_string h.buf s;
    Buffer.add_char h.buf '\n';
    if Buffer.length h.buf >= 1 lsl 20 then flush h

  let addf h fmt = Printf.ksprintf (add h) fmt

  let hex h =
    flush h;
    Digest.to_hex h.acc
end

(* Rank of every block and statement id of [p] among the program's own
   ids; -1 (root/steps) maps to itself. *)
let id_ranks (p : Mhj.Ast.program) =
  let sids = Hashtbl.create 256 and bids = Hashtbl.create 64 in
  let rank tbl l =
    List.iteri (fun i x -> Hashtbl.replace tbl x i) (List.sort_uniq compare l)
  in
  rank sids (Mhj.Ast.all_sids p);
  let bl = ref [] in
  ignore
    (Mhj.Ast.map_blocks
       (fun b ->
         bl := b.bid :: !bl;
         b)
       p);
  rank bids !bl;
  let look tbl x = if x < 0 then x else Hashtbl.find tbl x in
  (look sids, look bids)

let kind_code = function Rt.Monitor.Read -> 'R' | Rt.Monitor.Write -> 'W'

let interp_digest p =
  let sid, bid = id_ranks p in
  let h = Hasher.create () in
  let n (x : Sdpst.Node.t) = x in
  let monitor =
    {
      Rt.Monitor.on_init =
        (fun i _ -> Hasher.addf h "init %d" (Rt.Addr.Intern.n_globals i));
      on_task_begin = (fun x -> Hasher.addf h "tb %d" (n x));
      on_task_end = (fun x -> Hasher.addf h "te %d" (n x));
      on_finish_begin = (fun x -> Hasher.addf h "fb %d" (n x));
      on_finish_end = (fun x -> Hasher.addf h "fe %d" (n x));
      on_access =
        (fun ~step ~bid:b ~idx a k ->
          Hasher.addf h "a %d %d %d %d %c" (n step) (bid b) idx a (kind_code k));
    }
  in
  (match Rt.Interp.run ~monitor p with
  | r ->
      Hasher.addf h "output %S" r.output;
      Hasher.addf h "work %d" r.work;
      Hasher.addf h "globals %S" (Rt.Value.digest_globals r.globals);
      let t = r.tree in
      let module N = Sdpst.Node in
      N.iter_tree
        (fun x ->
          Hasher.addf h "n %d %s %d %d %d %d %d" x
            (N.kind_name (N.kind t x))
            (sid (N.sid t x)) (bid (N.origin_bid t x)) (N.origin_idx t x)
            (N.last_idx t x) (N.cost t x))
        t
  | exception e -> Hasher.addf h "raised %s" (Printexc.to_string e));
  Hasher.hex h

let fuzz_digest p =
  let h = Hasher.create () in
  for seed = 1 to 5 do
    Hasher.addf h "seed %d" seed;
    match Par.Engine.run ~mode:(Par.Engine.Fuzz { seed }) p with
    | r -> (
        Hasher.addf h "output %S" r.output;
        Hasher.addf h "digest %S" r.digest;
        Hasher.addf h "work %d" r.work;
        match r.stats.sched with
        | Par.Engine.Fuzz_stats { n_inlined; n_pooled; n_yields } ->
            Hasher.addf h "fuzz %d %d %d" n_inlined n_pooled n_yields
        | Par.Engine.Domains_stats _ -> Hasher.add h "domains")
    | exception e -> Hasher.addf h "raised %s" (Printexc.to_string e)
  done;
  Hasher.hex h

(* The corpus, in a fixed order: (name, program thunk). *)
let corpus () =
  let table1 =
    List.concat_map
      (fun (b : Benchsuite.Bench.t) ->
        if deep then
          [
            (b.name ^ "/perf", fun () -> Benchsuite.Bench.perf_program b);
            ( b.name ^ "/perf-stripped",
              fun () -> Benchsuite.Bench.stripped_perf_program b );
          ]
        else
          [
            (b.name ^ "/repair", fun () -> Benchsuite.Bench.repair_program b);
            (b.name ^ "/stripped", fun () -> Benchsuite.Bench.stripped_program b);
          ])
      Benchsuite.Suite.all
  in
  let seeds = if deep then 300 else 50 in
  table1
  @ List.init seeds (fun i ->
        let seed = i + 1 in
        ( Fmt.str "progen/%d" seed,
          fun () ->
            Mhj.Front.compile (Benchsuite.Progen.generate ~seed ()) ))

let line (name, prog) =
  let p = prog () in
  Fmt.str "%s %s %s" name (interp_digest p) (fuzz_digest p)

let expected_file =
  if deep then "eval_golden_deep.expected" else "eval_golden.expected"

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
  let actual = List.map line (corpus ()) in
  Alcotest.(check int) "corpus size" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      let name = List.hd (String.split_on_char ' ' e) in
      Alcotest.(check string) name e a)
    expected actual

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun c -> print_endline (line c)) (corpus ())
  else
    Alcotest.run "eval-golden"
      [
        ( "equivalence",
          [
            Alcotest.test_case
              (if deep then "deep corpus digests" else "corpus digests")
              `Quick test_golden;
          ] );
      ]
