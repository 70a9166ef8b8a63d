(** Repair-strategy tournament.

    The paper's repair is greedy finish insertion ({!Driver.repair}).
    This module adds three alternative repair strategies and a
    tournament that runs every applicable one, verifies each candidate
    race-free through the normal detect loop, scores it on the
    critical-path simulator ({!Compgraph.Score}), and picks the
    minimum-CPL winner (ties broken toward finish insertion, the
    paper's repair):

    - {b finish} — the interval-DP finish insertion of {!Driver.repair};
    - {b isolated} — wrap the racing statement ranges in [isolated]
      sections (mutual exclusion; scored with serialization edges
      between the conflicting section instances);
    - {b elide} — demote the offending [async] statements to inline
      sequential execution (the async elision of §2, applied
      selectively);
    - {b chunk} — split a racy loop into [C]-iteration sub-loops with a
      finish at every chunk seam, where [C] is the minimum racing
      iteration distance, so every conflicting pair is separated by a
      join.

    Every candidate is re-verified by a fresh detection run under the
    chosen backend; [isolated]-protected pairs are discharged by
    {!Isolate.split} and turned into mutual-exclusion edges for
    scoring.  Per-strategy outcomes land in the [strategy.*] metric
    family. *)

let src = Logs.Src.create "tdrace.strategy" ~doc:"repair-strategy tournament"

module Log = (val Logs.src_log src : Logs.LOG)
module Score = Compgraph.Score

type kind = Finish | Isolated | Elide | Chunk

let kind_name = function
  | Finish -> "finish"
  | Isolated -> "isolated"
  | Elide -> "elide"
  | Chunk -> "chunk"

(* Tie-break rank: lower wins on equal CPL, so finish insertion — the
   paper's repair — prevails unless strictly beaten. *)
let kind_rank = function Finish -> 0 | Isolated -> 1 | Elide -> 2 | Chunk -> 3

let pp_kind ppf k = Fmt.string ppf (kind_name k)

type candidate = {
  kind : kind;
  program : Mhj.Ast.program option;
      (** the rewritten program; [None] when the strategy is
          inapplicable or failed to converge *)
  verified : bool;  (** re-detection under the backend came back clean *)
  score : Score.t option;  (** scored execution of the candidate *)
  rounds : int;  (** rewrite rounds used *)
  note : string;  (** why the strategy produced nothing (diagnostic) *)
}

type choice = Options.strategy

let pp_choice = Options.pp_strategy

type outcome = {
  winner : candidate;
  program : Mhj.Ast.program;  (** the winner's race-free rewrite *)
  candidates : candidate list;  (** every strategy that was attempted *)
  finish_report : Driver.report option;
      (** the finish-insertion driver report, when that strategy ran *)
  metrics : (string * int) list;  (** the [strategy.*] metric family *)
}

(* A strategy that produced no program, and why. *)
let unproduced ?(rounds = 0) kind note =
  { kind; program = None; verified = false; score = None; rounds; note }

(* ------------------------------------------------------------------ *)
(* Detection plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* One verify run of a candidate ({!Driver.detect}): its surviving and
   discharged races, its S-DPST (for scoring) and its output (for the
   test-driven semantic check). *)
let detect options prog =
  let d = Driver.detect options prog in
  let surviving, discharged = Lazy.force d.races in
  (surviving, discharged, d.run.result.tree, d.run.result.output)

(* Serialization edges for scoring: each discharged race pins its two
   step instances into a depth-first mutual-exclusion order. *)
let serialize_pairs (discharged : Espbags.Race.t list) : (int * int) list =
  List.map
    (fun (r : Espbags.Race.t) ->
      (r.src.Sdpst.Node.id, r.sink.Sdpst.Node.id))
    discharged

(** Does a fresh detection run under [backend] come back race-free
    (after mutual-exclusion discharge of [isolated] pairs)? *)
let race_free ~(backend : [< Options.backend ]) prog : bool =
  let surviving, _, _, _ =
    detect { Options.default with backend = (backend :> Options.backend) } prog
  in
  surviving = []

(* ------------------------------------------------------------------ *)
(* Strategy: finish insertion (the paper's repair)                     *)
(* ------------------------------------------------------------------ *)

let finish_candidate ~options ~verify ~expected prog :
    candidate * Driver.report option =
  match Driver.repair ~options prog with
  | report ->
      let surviving, discharged, tree, output =
        detect verify report.Driver.program
      in
      let score = Score.of_tree ~serialize:(serialize_pairs discharged) tree in
      ( {
          kind = Finish;
          program = Some report.program;
          verified = report.converged && surviving = [] && output = expected;
          score = Some score;
          rounds = List.length report.iterations;
          note = (if output = expected then "" else "output differs");
        },
        Some report )
  | exception Driver.Unrepairable msg -> (unproduced Finish msg, None)

(* ------------------------------------------------------------------ *)
(* Strategy: isolated sections                                         *)
(* ------------------------------------------------------------------ *)

(* Wrap each surviving race's uncovered endpoint ranges.  An endpoint's
   range is its step's statement span [origin_idx .. last_idx] in
   [origin_bid]; ranges in one block are unioned when they overlap or
   touch.  Fails when a range is not serializable (task constructs or
   user calls inside — mirrors the type checker's isolated rule). *)
let isolated_placements (p : Mhj.Ast.program) (races : Espbags.Race.t list) :
    (Mhj.Transform.placement list, string) result =
  let sc = Mhj.Scopecheck.build p in
  let iso = Isolate.bids p in
  let ranges : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let add_endpoint (n : Sdpst.Node.t) =
    let bid = n.Sdpst.Node.origin_bid in
    if not (Isolate.IntSet.mem bid iso) then
      match Hashtbl.find_opt sc.Mhj.Scopecheck.blocks bid with
      | None -> fail "racing step in unknown block"
      | Some stmts ->
          let lo = n.origin_idx in
          let hi = max n.origin_idx n.last_idx in
          if lo < 0 || hi >= Array.length stmts then
            fail "racing step range out of block"
          else begin
            (* A declaration inside the range referenced by a later
               sibling would be orphaned by the nesting; extend the
               section to the end of the block in that case. *)
            let hi =
              if Mhj.Scopecheck.wrap_ok sc ~bid ~lo ~hi then hi
              else Array.length stmts - 1
            in
            let ok = ref (Mhj.Scopecheck.wrap_ok sc ~bid ~lo ~hi) in
            for i = lo to hi do
              if not (Isolate.wrappable_stmt stmts.(i)) then ok := false
            done;
            if not !ok then
              fail "racing statements are not serializable in isolated"
            else begin
              let r =
                match Hashtbl.find_opt ranges bid with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add ranges bid r;
                    r
              in
              r := (lo, hi) :: !r
            end
          end
  in
  List.iter
    (fun (r : Espbags.Race.t) ->
      add_endpoint r.src;
      add_endpoint r.sink)
    races;
  match !err with
  | Some msg -> Error msg
  | None ->
      let pls =
        Hashtbl.fold
          (fun bid r acc ->
            let sorted = List.sort compare !r in
            let merged =
              List.fold_left
                (fun acc (lo, hi) ->
                  match acc with
                  | (l, h) :: rest when lo <= h + 1 ->
                      (l, max h hi) :: rest
                  | _ -> (lo, hi) :: acc)
                [] sorted
            in
            List.fold_left
              (fun acc (lo, hi) -> { Mhj.Transform.bid; lo; hi } :: acc)
              acc merged)
          ranges []
      in
      if pls = [] then Error "no uncovered racing endpoint to wrap"
      else Ok pls

let isolated_max_rounds = 5

(* The refinement loop shared by the iterative strategies: detect,
   discharge isolated pairs, and when clean check the candidate still
   prints the test's expected output; otherwise [step] rewrites the
   program against the surviving races, at most [max_rounds] times. *)
let iterate kind ~max_rounds ~verify ~expected step prog : candidate =
  let rec go p round =
    let surviving, discharged, tree, output = detect verify p in
    let fail note = unproduced ~rounds:round kind note in
    if surviving = [] then
      if output = expected then
        {
          kind;
          program = Some p;
          verified = true;
          score =
            Some (Score.of_tree ~serialize:(serialize_pairs discharged) tree);
          rounds = round;
          note = "";
        }
      else fail "output differs from the test's expected output"
    else if round >= max_rounds then fail "round budget exhausted"
    else
      match step p surviving with
      | Error note -> fail note
      | Ok p' -> go p' (round + 1)
  in
  go prog 0

let isolated_candidate ~verify ~expected prog : candidate =
  iterate Isolated ~max_rounds:isolated_max_rounds ~verify ~expected
    (fun p races ->
      Result.map
        (Mhj.Transform.insert_isolated p)
        (isolated_placements p races))
    prog

(* ------------------------------------------------------------------ *)
(* Strategy: async elision                                             *)
(* ------------------------------------------------------------------ *)

(* Nearest enclosing async statement of an S-DPST node. *)
let rec async_sid (n : Sdpst.Node.t) : int option =
  match n.Sdpst.Node.kind with
  | Sdpst.Node.Async -> Some n.sid
  | _ -> Option.bind n.parent async_sid

let elide_candidate ~verify ~expected prog : candidate =
  iterate Elide ~max_rounds:(Mhj.Ast.count_asyncs prog + 1) ~verify ~expected
    (fun p races ->
      let sids =
        List.fold_left
          (fun acc (r : Espbags.Race.t) ->
            let add acc n =
              match async_sid n with
              | Some sid -> Isolate.IntSet.add sid acc
              | None -> acc
            in
            add (add acc r.src) r.sink)
          Isolate.IntSet.empty races
      in
      if Isolate.IntSet.is_empty sids then
        Error "racing tasks have no async ancestor"
      else Ok (Mhj.Transform.elide_asyncs p (Isolate.IntSet.elements sids)))
    prog

(* ------------------------------------------------------------------ *)
(* Strategy: loop chunking                                             *)
(* ------------------------------------------------------------------ *)

type loop_info = { for_sid : int; chunkable : bool }

(* Loop-body statement id -> enclosing for statement, for mapping
   S-DPST iteration scopes back to their loop. *)
let loop_table (p : Mhj.Ast.program) : (int, loop_info) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  Mhj.Ast.iter_stmts
    (fun st ->
      match st.s with
      | Mhj.Ast.For (_, _, hi, by, body) ->
          let lit_step =
            match by with
            | None -> true
            | Some { e = Mhj.Ast.Int s; _ } -> s <> 0
            | Some _ -> false
          in
          Hashtbl.replace tbl body.sid
            {
              for_sid = st.sid;
              chunkable = lit_step && Mhj.Transform.duplicable hi;
            }
      | _ -> ())
    p;
  tbl

let path_to (n : Sdpst.Node.t) : Sdpst.Node.t list =
  let rec go n acc =
    match n.Sdpst.Node.parent with
    | None -> n :: acc
    | Some p -> go p (n :: acc)
  in
  go n []

(* If the race is loop-carried — the two endpoints' tree paths diverge
   at two iteration scopes of one chunkable for loop — return the loop's
   statement id and the iteration ordinal distance. *)
let race_loop (tbl : (int, loop_info) Hashtbl.t) (a : Sdpst.Node.t)
    (b : Sdpst.Node.t) : (int * int) option =
  let rec go pa pb =
    match (pa, pb) with
    | x :: (xa :: _ as ra), y :: (yb :: _ as rb)
      when x.Sdpst.Node.id = y.Sdpst.Node.id ->
        if xa.Sdpst.Node.id = yb.Sdpst.Node.id then go ra rb
        else if
          xa.Sdpst.Node.sid = yb.Sdpst.Node.sid
          && Sdpst.Node.is_scope xa && Sdpst.Node.is_scope yb
        then
          match Hashtbl.find_opt tbl xa.Sdpst.Node.sid with
          | Some info when info.chunkable ->
              (* iteration ordinal = position among same-loop siblings *)
              let ord (c : Sdpst.Node.t) =
                let k = ref 0 and stop = ref false in
                Tdrutil.Vec.iter
                  (fun (ch : Sdpst.Node.t) ->
                    if not !stop then
                      if ch.Sdpst.Node.id = c.Sdpst.Node.id then stop := true
                      else if ch.Sdpst.Node.sid = c.Sdpst.Node.sid then
                        incr k)
                  x.Sdpst.Node.children;
                !k
              in
              Some (info.for_sid, abs (ord xa - ord yb))
          | _ -> None
        else None
    | _ -> None
  in
  go (path_to a) (path_to b)

let chunk_max_rounds = 4

let chunk_candidate ~verify ~expected prog : candidate =
  iterate Chunk ~max_rounds:chunk_max_rounds ~verify ~expected
    (fun p races ->
      let tbl = loop_table p in
      (* minimum racing iteration distance per loop *)
      let dmin : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let err = ref None in
      List.iter
        (fun (r : Espbags.Race.t) ->
          if !err = None then
            match race_loop tbl r.src r.sink with
            | Some (for_sid, d) when d >= 1 ->
                let cur =
                  Option.value ~default:max_int (Hashtbl.find_opt dmin for_sid)
                in
                Hashtbl.replace dmin for_sid (min cur d)
            | _ -> err := Some "race is not carried by a chunkable loop")
        races;
      match !err with
      | Some note -> Error note
      | None ->
          Ok
            (Hashtbl.fold
               (fun for_sid d p ->
                 Mhj.Transform.chunk_loop p ~sid:for_sid ~chunk:d)
               dmin p))
    prog

(* ------------------------------------------------------------------ *)
(* Tournament                                                          *)
(* ------------------------------------------------------------------ *)

let metrics_of (candidates : candidate list) (winner : candidate) :
    (string * int) list =
  ("strategy.winner", kind_rank winner.kind)
  :: List.concat_map
       (fun c ->
         let k s = "strategy." ^ kind_name c.kind ^ "." ^ s in
         [
           (k "produced", if c.program <> None then 1 else 0);
           (k "verified", if c.verified then 1 else 0);
           (k "rounds", c.rounds);
         ]
         @
         match c.score with
         | Some s ->
             [
               (k "cpl", s.Score.cpl);
               (k "work", s.Score.work);
               (k "makespan", s.Score.makespan);
             ]
         | None -> [ (k "cpl", 0); (k "work", 0); (k "makespan", 0) ])
       candidates

(* Budget exhaustion (fuel, watchdog) ends the whole run, as it does for
   finish insertion alone; no candidate may report it as its own
   failure. *)
let is_budget e =
  match Diag.of_exn e with Some d -> d.Diag.stage = Diag.Budget | None -> false

(* Shield the tournament from one strategy's internal failure (e.g. a
   rewrite producing a program the interpreter rejects): the candidate
   is marked unproduced, the others still compete. *)
let guarded kind (f : unit -> candidate) : candidate =
  try f () with
  | Driver.Unrepairable msg -> unproduced kind msg
  | e when not (is_budget e) -> unproduced kind (Printexc.to_string e)

(** Run the chosen repair strategy (or the full tournament) on a racy
    program.  The winner is the minimum-CPL verified-race-free
    candidate; ties break toward finish insertion.  The finish candidate
    is {!Driver.repair} under the whole [options] (default
    {!Options.default} with backend [`Auto]); every candidate's verify
    run honours its mode, backend, fuel budget, pre-pass and shadow chunk.
    [options.strategy] is not read: [choice] picks.
    @raise Driver.Unrepairable
      if no strategy produces a verified race-free candidate.
    @raise Diag.Fail when a budget is exhausted. *)
let run ?(options = { Options.default with backend = `Auto }) (choice : choice)
    (prog : Mhj.Ast.program) : outcome =
  let backend = fst (Vclock.Select.resolve options.Options.backend prog) in
  let options = { options with backend = (backend :> Options.backend) } in
  let verify = { options with spill = None } in
  (* The test's expected output: the racy program's canonical depth-first
     execution (which realizes the serial-projection order).  Every
     candidate must reproduce it — race freedom alone is not a repair. *)
  let expected = (Rt.Interp.run prog).Rt.Interp.output in
  let fin () = finish_candidate ~options ~verify ~expected prog in
  let single kind gen =
    let cand, report =
      match (kind : kind) with
      | Finish -> fin ()
      | _ -> (guarded kind gen, None)
    in
    match cand with
    | { verified = true; program = Some p; _ } ->
        {
          winner = cand;
          program = p;
          candidates = [ cand ];
          finish_report = report;
          metrics = metrics_of [ cand ] cand;
        }
    | _ ->
        raise
          (Driver.Unrepairable
             (Fmt.str "strategy %a produced no race-free repair%s" pp_kind
                kind
                (if cand.note = "" then "" else ": " ^ cand.note)))
  in
  match choice with
  | `Finish -> single Finish (fun () -> fst (fin ()))
  | `Isolated ->
      single Isolated (fun () -> isolated_candidate ~verify ~expected prog)
  | `Elide -> single Elide (fun () -> elide_candidate ~verify ~expected prog)
  | `Chunk -> single Chunk (fun () -> chunk_candidate ~verify ~expected prog)
  | `Tournament ->
      let fin_cand, report =
        try fin ()
        with e when not (is_budget e) ->
          (unproduced Finish (Printexc.to_string e), None)
      in
      let candidates =
        [
          fin_cand;
          guarded Isolated (fun () ->
              isolated_candidate ~verify ~expected prog);
          guarded Elide (fun () -> elide_candidate ~verify ~expected prog);
          guarded Chunk (fun () -> chunk_candidate ~verify ~expected prog);
        ]
      in
      let viable =
        List.filter
          (fun c -> c.verified && c.score <> None && c.program <> None)
          candidates
      in
      (match viable with
      | [] ->
          raise
            (Driver.Unrepairable
               "tournament: no strategy produced a race-free candidate")
      | first :: rest ->
          let key c =
            match c.score with
            | Some s -> (s.Score.cpl, kind_rank c.kind)
            | None -> (max_int, kind_rank c.kind)
          in
          let winner =
            List.fold_left
              (fun acc c -> if key c < key acc then c else acc)
              first rest
          in
          Log.info (fun m ->
              m "tournament winner: %a (%a)" pp_kind winner.kind
                (Fmt.option Score.pp) winner.score);
          {
            winner;
            program = Option.get winner.program;
            candidates;
            finish_report = report;
            metrics = metrics_of candidates winner;
          })
