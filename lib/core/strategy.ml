(** Repair-strategy tournament (see strategy.mli). *)

let src = Logs.Src.create "tdrace.strategy" ~doc:"repair-strategy tournament"

module Log = (val Logs.src_log src : Logs.LOG)
module Score = Compgraph.Score
module Pairs = Espbags.Race.Pairs

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
  verified : bool;
  score : Score.t option;
  rounds : int;
  note : string;
}

type choice = Options.strategy

let pp_choice = Options.pp_strategy

type outcome = {
  winner : candidate;
  program : Mhj.Ast.program;
  candidates : candidate list;
  finish_report : Driver.report option;
  metrics : (string * int) list;
}

(* A strategy that produced no program, and why. *)
let unproduced ?(rounds = 0) kind note =
  { kind; program = None; verified = false; score = None; rounds; note }

(* ------------------------------------------------------------------ *)
(* Detection plumbing                                                  *)
(* ------------------------------------------------------------------ *)

(* A detection run's output.  The input's is the test's expected output:
   its canonical depth-first execution, which realizes the
   serial-projection order.  Every candidate must reproduce it — race
   freedom alone is not a repair. *)
let output (d : Driver.detection) = d.run.result.Rt.Interp.output

(* The score of a candidate's clean run.  Each discharged pair is a
   serialization edge: it pins its two step instances into a depth-first
   mutual-exclusion order. *)
let score_of (d : Driver.detection) =
  let discharged = Lazy.force d.discharged in
  Obs.Trace.with_span "score" (fun () ->
      Score.of_tree
        ~serialize:
          (List.init (Pairs.length discharged) (fun k ->
               (Pairs.src_id discharged k, Pairs.sink_id discharged k)))
        d.run.result.Rt.Interp.tree)

(* The pairs [k] of [pairs], in order. *)
let iter_pairs (pairs : Pairs.t) f =
  for k = 0 to Pairs.length pairs - 1 do
    f (Pairs.src_id pairs k) (Pairs.sink_id pairs k)
  done

(* ------------------------------------------------------------------ *)
(* Strategy: finish insertion (the paper's repair)                     *)
(* ------------------------------------------------------------------ *)

(* [first] is the input's detection: the repair's first iteration, which
   may mutate its S-DPST.  The verdict and the score come from the
   repair's last iteration, the run of the program it returns. *)
let finish_candidate ~options ~first prog : candidate * Driver.report option =
  let expected = output first in
  match Driver.repair_detected ~options ~first prog with
  | report, last ->
      let same = output last = expected in
      ( {
          kind = Finish;
          program = Some report.Driver.program;
          verified =
            report.converged && Pairs.length (Lazy.force last.pairs) = 0
            && same;
          score = Some (score_of last);
          rounds = List.length report.iterations;
          note = (if same then "" else "output differs");
        },
        Some report )
  | exception Driver.Unrepairable msg -> (unproduced Finish msg, None)

(* ------------------------------------------------------------------ *)
(* Strategy: isolated sections                                         *)
(* ------------------------------------------------------------------ *)

(* Wrap each surviving pair's uncovered endpoint ranges.  An endpoint's
   range is its step's statement span [origin_idx .. last_idx] in
   [origin_bid]; ranges in one block are unioned when they overlap or
   touch.  Fails when a range is not serializable (task constructs or
   user calls inside — mirrors the type checker's isolated rule). *)
let isolated_placements (p : Mhj.Ast.program) (pairs : Pairs.t) :
    (Mhj.Transform.placement list, string) result =
  let sc = Mhj.Scopecheck.build p in
  let iso = Isolate.bids p in
  let ranges : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let tree = Pairs.tree pairs in
  let add_endpoint (n : Sdpst.Node.t) =
    let bid = Sdpst.Node.origin_bid tree n in
    if not (Isolate.IntSet.mem bid iso) then
      match Hashtbl.find_opt sc.Mhj.Scopecheck.blocks bid with
      | None -> fail "racing step in unknown block"
      | Some stmts ->
          let lo = Sdpst.Node.origin_idx tree n in
          let hi = max lo (Sdpst.Node.last_idx tree n) in
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
            if
              Mhj.Scopecheck.wrap_ok sc ~bid ~lo ~hi
              && Array.for_all Isolate.wrappable_stmt
                   (Array.sub stmts lo (hi - lo + 1))
            then
              Hashtbl.replace ranges bid
                ((lo, hi)
                :: Option.value ~default:[] (Hashtbl.find_opt ranges bid))
            else fail "racing statements are not serializable in isolated"
          end
  in
  iter_pairs pairs (fun src sink ->
      add_endpoint src;
      add_endpoint sink);
  match !err with
  | Some msg -> Error msg
  | None ->
      let pls =
        Hashtbl.fold
          (fun bid r acc ->
            let sorted = List.sort compare r in
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

(* The refinement loop shared by the iterative strategies: from the
   input's detection [first], discharge isolated pairs, and when clean
   check the candidate still prints the test's expected output;
   otherwise [step] rewrites the program against the surviving pairs and
   the rewrite is detected, at most [max_rounds] times. *)
let iterate kind ~max_rounds ~options ~first step prog : candidate =
  let expected = output first in
  let rec go p d round =
    let surviving = Lazy.force d.Driver.pairs in
    let fail note = unproduced ~rounds:round kind note in
    if Pairs.length surviving = 0 then
      if output d = expected then
        {
          kind;
          program = Some p;
          verified = true;
          score = Some (score_of d);
          rounds = round;
          note = "";
        }
      else fail "output differs from the test's expected output"
    else if round >= max_rounds then fail "round budget exhausted"
    else
      match Obs.Trace.with_span "rewrite" (fun () -> step p surviving) with
      | Error note -> fail note
      | Ok p' -> go p' (Driver.detect options p') (round + 1)
  in
  go prog first 0

let isolated_candidate ~options ~first prog : candidate =
  iterate Isolated ~max_rounds:isolated_max_rounds ~options ~first
    (fun p pairs ->
      Result.map
        (Mhj.Transform.insert_isolated p)
        (isolated_placements p pairs))
    prog

(* ------------------------------------------------------------------ *)
(* Strategy: async elision                                             *)
(* ------------------------------------------------------------------ *)

(* Nearest enclosing async statement of an S-DPST node. *)
let rec async_sid tree (n : Sdpst.Node.t) : int option =
  if n < 0 then None
  else if Sdpst.Node.is_async tree n then Some (Sdpst.Node.sid tree n)
  else async_sid tree (Sdpst.Node.parent tree n)

let elide_candidate ~options ~first prog : candidate =
  iterate Elide ~max_rounds:(Mhj.Ast.count_asyncs prog + 1) ~options ~first
    (fun p pairs ->
      let tree = Pairs.tree pairs in
      let sids = ref Isolate.IntSet.empty in
      let add n =
        Option.iter
          (fun sid -> sids := Isolate.IntSet.add sid !sids)
          (async_sid tree n)
      in
      iter_pairs pairs (fun src sink ->
          add src;
          add sink);
      let sids = !sids in
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

let path_to tree (n : Sdpst.Node.t) : Sdpst.Node.t list =
  let rec go n acc = if n < 0 then acc else go (Sdpst.Node.parent tree n) (n :: acc) in
  go n []

(* If the race is loop-carried — the two endpoints' tree paths diverge
   at two iteration scopes of one chunkable for loop — return the loop's
   statement id and the iteration ordinal distance. *)
let race_loop (tbl : (int, loop_info) Hashtbl.t) tree (a : Sdpst.Node.t)
    (b : Sdpst.Node.t) : (int * int) option =
  let module N = Sdpst.Node in
  let rec go pa pb =
    match (pa, pb) with
    | x :: (xa :: _ as ra), y :: (yb :: _ as rb) when x = y ->
        if xa = yb then go ra rb
        else if
          N.sid tree xa = N.sid tree yb
          && N.is_scope tree xa && N.is_scope tree yb
        then
          match Hashtbl.find_opt tbl (N.sid tree xa) with
          | Some info when info.chunkable ->
              (* iteration ordinal = position among same-loop siblings *)
              let ord (c : N.t) =
                let sid = N.sid tree c in
                let rec count ch k =
                  if ch = c || ch < 0 then k
                  else
                    count (N.next_sibling tree ch)
                      (if N.sid tree ch = sid then k + 1 else k)
                in
                count (N.first_child tree x) 0
              in
              Some (info.for_sid, abs (ord xa - ord yb))
          | _ -> None
        else None
    | _ -> None
  in
  go (path_to tree a) (path_to tree b)

let chunk_max_rounds = 4

let chunk_candidate ~options ~first prog : candidate =
  iterate Chunk ~max_rounds:chunk_max_rounds ~options ~first
    (fun p pairs ->
      let tbl = loop_table p in
      let tree = Pairs.tree pairs in
      (* minimum racing iteration distance per loop *)
      let dmin : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let err = ref None in
      iter_pairs pairs (fun src sink ->
          if !err = None then
            match race_loop tbl tree src sink with
            | Some (for_sid, d) when d >= 1 ->
                let cur =
                  Option.value ~default:max_int (Hashtbl.find_opt dmin for_sid)
                in
                Hashtbl.replace dmin for_sid (min cur d)
            | _ -> err := Some "race is not carried by a chunkable loop");
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

(* The input is run once, and every candidate's first round reads that
   detection. *)
let run ?(options = { Options.default with backend = `Auto }) (choice : choice)
    (prog : Mhj.Ast.program) : outcome =
  let backend = fst (Vclock.Select.resolve options.Options.backend prog) in
  (* no candidate reports a spill count ({!Options.validate}) *)
  let options =
    { options with backend = (backend :> Options.backend); spill = None }
  in
  let first = Driver.detect options prog in
  let span kind f =
    Obs.Trace.with_span "candidate" ~args:[ ("kind", kind_rank kind) ] f
  in
  let fin () = span Finish (fun () -> finish_candidate ~options ~first prog) in
  let alt kind gen =
    span kind (fun () -> guarded kind (fun () -> gen ~options ~first prog))
  in
  let single (cand, report) =
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
                cand.kind
                (if cand.note = "" then "" else ": " ^ cand.note)))
  in
  match choice with
  | `Finish -> single (fin ())
  | `Isolated -> single (alt Isolated isolated_candidate, None)
  | `Elide -> single (alt Elide elide_candidate, None)
  | `Chunk -> single (alt Chunk chunk_candidate, None)
  | `Tournament ->
      (* Finish runs last: its repair may splice finishes into [first]'s
         S-DPST or prune it, and the others read parent chains off
         [first]'s pairs.  So [first] outlives three candidates' own
         runs.  The candidates read its pair sets and detector counters;
         reading them now lets the detector state those close over
         (shadow memory, ordering state) go before the first of those
         runs.  Its unread race records keep only the race buffer. *)
      Obs.Trace.with_span "races" (fun () ->
          ignore (Lazy.force first.pairs);
          ignore (Lazy.force first.discharged);
          ignore (Lazy.force first.run.stats));
      let iso = alt Isolated isolated_candidate in
      let eli = alt Elide elide_candidate in
      let chk = alt Chunk chunk_candidate in
      let fin_cand, report =
        try fin ()
        with e when not (is_budget e) ->
          (unproduced Finish (Printexc.to_string e), None)
      in
      let candidates = [ fin_cand; iso; eli; chk ] in
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
      | c0 :: rest ->
          let key c =
            match c.score with
            | Some s -> (s.Score.cpl, kind_rank c.kind)
            | None -> (max_int, kind_rank c.kind)
          in
          let winner =
            List.fold_left
              (fun acc c -> if key c < key acc then c else acc)
              c0 rest
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
