(** The test-driven repair driver (paper Figure 6 and §6.1).

    One iteration: execute the program depth-first under an ESP-bags
    detector; group the reported races by NS-LCA; per group, reduce the
    subtree to a dependence graph and run the dynamic-programming placement
    (Algorithm 1) under the scope-validity predicate; map the chosen
    dynamic finishes to static program locations; merge and insert them.
    Iterate until a detection run reports no races (with SRW, at least one
    extra confirmation run is always needed; with MRW, one repair iteration
    suffices unless placements interact — paper §7.3).

    Robustness: every stage runs inside {!Guard.at_stage}, so raw
    [Invalid_argument]/[Failure] escapes become typed {!Diag.t}
    diagnostics; resource budgets ({!Guard.budgets}) bound the interpreter,
    the S-DPST and the placement DP, each with a graceful degradation path
    recorded in the report; {!Faultinject} hooks let the test-suite fail
    any stage deterministically. *)

let src = Logs.Src.create "tdrace.driver" ~doc:"test-driven repair driver"

module Log = (val Logs.src_log src : Logs.LOG)

type group_result = {
  lca_id : int;  (** S-DPST node id of the NS-LCA *)
  n_vertices : int;
  n_edges : int;
  dp_cost : int;  (** optimal block completion time found by the DP *)
  fell_back : bool;
      (** the DP was bypassed (unsatisfiable or over budget) and per-edge
          minimal covers were used *)
  insertions : Valid.insertion list;
}

type iteration = {
  n_races : int;  (** raw race reports this run *)
  n_race_pairs : int;  (** distinct (src step, sink step) pairs *)
  n_groups : int;  (** distinct NS-LCAs *)
  groups : group_result list;
  merged : Static_place.merged;
  detect_time : float;
      (** seconds spent executing + detecting; next to none when the
          caller supplied the detection ({!repair_detected}) *)
  place_time : float;  (** seconds spent in placement (dynamic + static) *)
  sdpst_nodes : int;
  n_accesses : int;  (** accesses the detector checked this run *)
  n_skipped : int;  (** accesses skipped by the static prune pre-pass *)
}

type report = {
  program : Mhj.Ast.program;  (** the repaired program *)
  mode : Espbags.Detector.mode;
  iterations : iteration list;
  converged : bool;  (** final detection run found no races *)
  final_races : int;  (** races remaining (0 when converged) *)
  degradations : Guard.degradation list;
      (** budget degradations that fired, in order; empty means the repair
          ran at full fidelity *)
  verified_static : bool option;
      (** [--static-verify] verdict on the converged program: [Some true]
          means race-free for every input, not just the test input;
          [Some false] means unproven MHP pairs remain (see
          [static_residual]); [None] means verification was not requested
          or the repair did not converge *)
  static_residual : Static.Finding.t list;
      (** the unproven pairs behind [verified_static = Some false] *)
  validated_par : Par.Validate.t option;
      (** [--validate-par] outcome on the converged program: the repaired
          program re-run under fuzzed parallel schedules and compared
          against the sequential semantics ([None] when not requested or
          not converged) *)
  metrics : (string * int) list;
      (** sorted snapshot of the run's {!Obs.Metrics} registry: detector,
          pruner, engine and driver counters (the full key schema is
          always present, zeros for subsystems that did not run) *)
}

(* The full metrics key schema, pinned at 0 up front so every report and
   [--metrics] dump carries the same keys regardless of which subsystems
   ran.  "detector."/"engine."/"driver." keys are counters (cumulative
   across iterations); "prune." keys are gauges (latest pre-pass wins). *)
let declare_metrics m =
  List.iter (Obs.Metrics.declare m)
    [
      "detector.accesses";
      "detector.locations";
      "detector.races";
      "detector.skipped";
      "detector.uf_finds";
      "detector.uf_unions";
      "detector.scan_entries";
      "detector.backend";
      "detector.tasks";
      "detector.clock_merges";
      "detector.shadow_slabs";
      "detector.shadow_words";
      "detector.gc_retired";
      "detector.clocks_freed";
      "detector.spilled_races";
      "detector.peak_rss_kb";
      "prune.stmts";
      "prune.kept";
      "prune.discharged";
      "prune.conflicts";
      "engine.runs";
      "engine.tasks";
      "engine.fuel_batches";
      "engine.inlined";
      "engine.pooled";
      "engine.yields";
      "engine.steals";
      "engine.deque_grows";
      "driver.iterations";
      "driver.races";
      "driver.race_pairs";
      "driver.lifted_pairs";
      "driver.groups";
      "driver.finishes_inserted";
      "driver.degradations";
    ]

exception Unrepairable of string

(** Which sequential detection backend executes the program: the
    ESP-bags detectors (the paper's algorithm, the default), the
    vector-clock detector ({!Vclock.Seq}, report-identical), or an
    automatic per-workload pick ({!Vclock.Select.resolve}).  The resolved
    choice is recorded in [report.metrics] as [detector.backend]
    (0 = espbags, 1 = vclock). *)
type backend = Options.backend

(* ------------------------------------------------------------------ *)
(* One detection run                                                   *)
(* ------------------------------------------------------------------ *)

type detection = {
  backend : Vclock.Select.choice;
  prune : Static.Prune.t option;
  run : Vclock.Select.detection;
  pairs : Espbags.Race.Pairs.t Lazy.t;
  discharged : Espbags.Race.Pairs.t Lazy.t;
}

let detect (o : Options.t) prog =
  let backend = fst (Vclock.Select.resolve o.backend prog) in
  let prune =
    if o.static_prune then
      Some
        (Guard.at_stage Diag.Lint (fun () ->
             Obs.Trace.with_span "static-prune" (fun () ->
                 Static.Prune.make prog)))
    else None
  in
  let run =
    Guard.at_stage Diag.Detect (fun () ->
        Obs.Trace.with_span "detect" (fun () ->
            Vclock.Select.detect ~backend
              ?fuel:(Guard.effective_fuel o.budgets)
              ?keep:(Option.map Static.Prune.keep_fn prune)
              ?chunk:o.shadow_chunk
              ?spill:(Option.map Espbags.Spill.config o.spill)
              o.mode prog))
  in
  (* Pairs whose both endpoints sit inside [isolated] sections are
     discharged by mutual exclusion — the detectors run the body as a
     plain scope and cannot see the serialization. *)
  let split = lazy (Isolate.partition prog (Lazy.force run.pairs)) in
  {
    backend;
    prune;
    run;
    pairs = lazy (fst (Lazy.force split));
    discharged = lazy (snd (Lazy.force split));
  }

(* ------------------------------------------------------------------ *)
(* Single-iteration placement                                          *)
(* ------------------------------------------------------------------ *)

module Pairs = Espbags.Race.Pairs

(* The pairs [iter] yields, lifted and grouped by their NS-LCA: each
   pair is lifted with [lifter] (one root-path walk per run of pairs
   sharing a sink) into the pass's per-pair columns [src_child] and
   [sink_child], of length [Pairs.length pairs].  The groups hold the
   pairs in [iter]'s order, in ascending NS-LCA id order.  With
   [mhp_only], pairs whose steps may no longer run in parallel (Theorem
   1: the source's child is not an async) are dropped.  Consecutive
   pairs mostly share an NS-LCA, so the last group is checked before the
   table. *)
let group_indices ?(mhp_only = false) lifter ~src_child ~sink_child
    (pairs : Pairs.t) iter : Depgraph.lifted list =
  Sdpst.Lca.restart lifter;
  let tree = Pairs.tree pairs in
  let tbl = Hashtbl.create 64 in
  let fresh nslca =
    let g =
      { Depgraph.tree; nslca; pairs = Tdrutil.Ivec.create (); src_child;
        sink_child }
    in
    Hashtbl.add tbl nslca g;
    g
  in
  let last = ref None in
  let group_of lca =
    match !last with
    | Some (g : Depgraph.lifted) when g.nslca = lca -> g
    | _ ->
        let g =
          match Hashtbl.find_opt tbl lca with
          | Some g -> g
          | None -> fresh lca
        in
        last := Some g;
        g
  in
  iter (fun k ->
      let src = Pairs.src_id pairs k and sink = Pairs.sink_id pairs k in
      let lca = Sdpst.Lca.lift lifter ~src ~sink in
      if (not mhp_only) || Sdpst.Lca.src_child_is_async lifter then begin
        Tdrutil.Ivec.push (group_of lca).pairs k;
        Tdrutil.Ivec.set src_child k (Sdpst.Lca.src_child lifter);
        Tdrutil.Ivec.set sink_child k (Sdpst.Lca.sink_child lifter)
      end);
  Hashtbl.fold (fun _ g acc -> g :: acc) tbl []
  |> List.sort (fun (a : Depgraph.lifted) (b : Depgraph.lifted) ->
         Int.compare a.nslca b.nslca)

(* Representatives keep the step order, so the moved pairs are still in
   report order.  A step recurs across many pairs: representatives are
   kept in a direct-mapped cache of one slot per 8 pairs, at most 32768,
   so that a small pair set allocates little. *)
let project (pairs : Pairs.t) : Pairs.t =
  let tree = Pairs.tree pairs in
  (* the first step of the subtrees from [c] on, in preorder: a
     collapsed scope has no children left *)
  let rec first_step c =
    if c < 0 || Sdpst.Node.is_step tree c then c
    else
      let s = first_step (Sdpst.Node.first_child tree c) in
      if s >= 0 then s else first_step (Sdpst.Node.next_sibling tree c)
  in
  let slots =
    let rec pow2 n =
      if n >= min (Pairs.length pairs / 8) 32768 then n else pow2 (2 * n)
    in
    pow2 16
  in
  let cached = Array.make slots (-1) and reps = Array.make slots (-1) in
  let rep step =
    let i = step land (slots - 1) in
    if Array.unsafe_get cached i <> step then begin
      let top = Sdpst.Node.spawn_free_top tree step in
      Array.unsafe_set cached i step;
      Array.unsafe_set reps i
        (if top < 0 then step
         else first_step (Sdpst.Node.first_child tree top))
    end;
    Array.unsafe_get reps i
  in
  Pairs.map rep pairs

(* The projected pairs, their per-pair columns and their groups, every
   pair lifted with [lifter]. *)
let group_projected lifter pairs =
  let pairs = project pairs in
  let n = Pairs.length pairs in
  let src_child = Tdrutil.Ivec.make ~len:n (-1)
  and sink_child = Tdrutil.Ivec.make ~len:n (-1) in
  ( pairs,
    src_child,
    sink_child,
    group_indices lifter ~src_child ~sink_child pairs (fun f ->
        for k = 0 to n - 1 do
          f k
        done) )

(* Fallback when the DP cannot satisfy all edges with one optimal plan:
   cover each edge (x, y) by its smallest scope-valid interval [s..e]
   with s <= x <= e < y, the leftmost of the narrowest.  The edges of
   one source x are covered together, in ascending y, by one walk over
   the candidates in that order: every candidate is probed once per
   source, and an edge's cover is the first valid candidate walked so
   far that ends before y, else the next one the walk meets.  Only the
   valid candidates walked are kept: nothing quadratic in the vertex
   count is allocated. *)
let per_edge_fallback ~wrap_ok (g : Depgraph.t) : (int * int) list option =
  let valid s e = Option.is_some (Valid.insertion_for ~wrap_ok g ~i:s ~j:e) in
  let edges = Array.of_list g.edges in
  let order = Array.init (Array.length edges) Fun.id in
  Array.stable_sort (fun a b -> compare edges.(a) edges.(b)) order;
  let covers = Array.make (Array.length edges) None in
  let x0 = ref (-1) in
  (* the walk of the current source: next candidate (width, start), and
     the valid candidates walked so far, in walk order *)
  let width = ref 0 and start = ref 0 and found = ref [] in
  Array.iter
    (fun ei ->
      let x, y = edges.(ei) in
      if x <> !x0 then begin
        x0 := x;
        width := 0;
        start := x;
        found := []
      end;
      let cover =
        ref (List.find_opt (fun (_, e) -> e < y) (List.rev !found))
      in
      while !cover = None && !width < y do
        let s = !start and e = !start + !width in
        if !start = x then begin
          incr width;
          start := max 0 (x - !width)
        end
        else incr start;
        if valid s e then begin
          found := (s, e) :: !found;
          if e < y then cover := Some (s, e)
        end
      done;
      covers.(ei) <- !cover)
    order;
  if Array.for_all Option.is_some covers then
    Some (Array.to_list (Array.map Option.get covers))
  else None

(* DP work estimate for an n-vertex dependence graph: the interval DP does
   O(n^3) cell updates.  Saturating, so budgets compare safely. *)
let dp_work_of n = if n >= 100_000 then max_int / 2 else n * n * n

let no_placement tree lca =
  Unrepairable
    (Fmt.str
       "no scope-valid finish placement can separate the races at NS-LCA %a"
       (Sdpst.Node.pp tree) lca)

(* Solve one NS-LCA group.  Fidelity chain, highest affordable tier first
   (DESIGN.md "Robustness & failure modes"):
   - with no DP budget: the coalesced DP, exactly as always;
   - with a budget: the exact uncoalesced DP when its ~n_raw^3 work fits,
     else the coalesced DP when ~n^3 fits, else per-edge minimal interval
     covers (recorded as a degradation);
   - a DP that proves Unsatisfiable falls back to per-edge covers at any
     tier (also recorded). *)
let solve_group ~guard ~wrap_ok ~span (group : Depgraph.lifted) :
    group_result =
  let lca = group.nslca and tree = group.tree in
  let pp_lca = Sdpst.Node.pp tree in
  (* placement runs under the job's deadline too: one poll per group *)
  Rt.Watchdog.check ();
  if Faultinject.enabled Faultinject.Place_unsat then
    raise
      (Unrepairable
         (Fmt.str "injected fault: unsatisfiable placement at NS-LCA %a"
            pp_lca lca));
  let g =
    Obs.Trace.with_span "depgraph" (fun () ->
        Depgraph.of_pairs ~span group)
  in
  let cover_with g' =
    match per_edge_fallback ~wrap_ok g' with
    | Some ivs -> (g', ivs, -1, true)
    | None -> raise (no_placement tree lca)
  in
  let solve_on g' =
    match Dp_place.solve ~valid:(Valid.make_checker ~wrap_ok g') g' with
    | { cost; finishes } -> (g', finishes, cost, false)
    | exception Dp_place.Unsatisfiable _ ->
        Log.warn (fun m ->
            m "DP unsatisfiable at NS-LCA %a; falling back to per-edge covers"
              pp_lca lca);
        Guard.note guard (Guard.Dp_unsat_fallback { lca_id = lca });
        cover_with g'
  in
  let n = Depgraph.n_vertices g in
  let g_used, finishes, dp_cost, fell_back =
    Obs.Trace.with_span "dp-place"
      ~args:[ ("lca", lca); ("vertices", n) ]
    @@ fun () ->
    if
      Faultinject.enabled Faultinject.Dp_timeout
      || not (Guard.dp_affordable guard (dp_work_of n))
    then begin
      Log.warn (fun m ->
          m "DP work budget exhausted at NS-LCA %a; using per-edge covers"
            pp_lca lca);
      Guard.note guard (Guard.Dp_interval_cover { lca_id = lca });
      cover_with g
    end
    else begin
      let budgeted = (Guard.budgets guard).Guard.dp_work <> None in
      let full_work = dp_work_of g.Depgraph.n_raw in
      if
        budgeted && g.Depgraph.n_raw > n
        && Guard.dp_affordable guard full_work
      then begin
        (* A budget is set and generous enough for the paper's exact
           uncoalesced DP on this group: buy the extra fidelity. *)
        Guard.dp_charge guard full_work;
        solve_on (Depgraph.of_pairs ~coalesce:false ~span group)
      end
      else begin
        Guard.dp_charge guard (dp_work_of n);
        solve_on g
      end
    end
  in
  let insertions =
    List.map
      (fun (s, e) ->
        match Valid.insertion_for ~wrap_ok g_used ~i:s ~j:e with
        | Some ins -> ins
        | None ->
            (* solve and the covers only return intervals they validated *)
            assert false)
      finishes
  in
  {
    lca_id = lca;
    n_vertices = Depgraph.n_vertices g_used;
    n_edges = Depgraph.n_edges g_used;
    dp_cost;
    fell_back;
    insertions;
  }

(* The demands of the solved groups, as one merged placement. *)
let merge_demands ~scopes results =
  Static_place.merge ~scopes
    (List.concat_map
       (fun r ->
         List.map (fun (i : Valid.insertion) -> (r.lca_id, i.placement))
           r.insertions)
       results)

let scopes_of program =
  Obs.Trace.with_span "scopecheck" (fun () -> Mhj.Scopecheck.build program)

(* Batch placement: every NS-LCA group against the one S-DPST.  Also
   returns the number of projected pairs lifted. *)
let place_batch ~guard ~program (pairs : Pairs.t) =
  let tree = Pairs.tree pairs in
  let span, _drag = Sdpst.Analysis.span_memo tree in
  let scopes = scopes_of program in
  let wrap_ok = Mhj.Scopecheck.wrap_ok scopes in
  let projected, _, _, groups =
    Obs.Trace.with_span "nslca-group" (fun () ->
        group_projected (Sdpst.Lca.lifter tree) pairs)
  in
  let results = List.map (solve_group ~guard ~wrap_ok ~span) groups in
  (results, merge_demands ~scopes results, Pairs.length projected)

let place_pairs ?(guard = Guard.make Guard.unlimited) ~program pairs =
  let results, merged, _ = place_batch ~guard ~program pairs in
  (results, merged)

module Int_map = Map.Make (Int)

(* Paper §6.1's incremental loop over a live S-DPST: each round solves
   the first group in DFS order, splices its first finish into the tree
   (step d), drops the pairs that finish resolves, re-checked with
   Theorem 1 on the updated tree (step e), and regroups the remainder,
   whose NS-LCAs may have changed (step f).  Mutates [tree].

   A finish spliced under [P] only changes the NS-LCA or the Theorem 1
   answer of pairs whose NS-LCA is [P] or one of its ancestors: nodes
   outside its subtree keep their ancestors, and a pair with an endpoint
   inside has its NS-LCA on [P]'s root path unless both endpoints sit
   below one adopted child, under a non-scope node that shields them.
   So after the first round, which re-checks every pair, a round
   re-checks and regroups only the groups keyed on [P]'s root path.

   The rounds place the projected pairs ({!project}), projected once:
   a spliced finish adopts a source's async, so its parent already
   spawns, and no outermost spawn-free scope changes.  Groups hold
   projected pair indices in increasing order.  Also returns the number
   of projected pairs. *)
let place_pairs_incremental ~guard ~program (tree : Sdpst.Node.tree)
    (pairs : Pairs.t) =
  let scopes = scopes_of program in
  let wrap_ok = Mhj.Scopecheck.wrap_ok scopes in
  let results = ref [] in
  let lifter = Sdpst.Lca.lifter tree in
  (* keys are node ids, unique per tree ({!Sdpst.Node.tree}): a regrouped
     pair's NS-LCA is either a stale key, removed before regrouping, or
     the finish just spliced in *)
  let add_groups groups gs =
    List.fold_left
      (fun m (g : Depgraph.lifted) ->
        let id = g.nslca in
        if Int_map.mem id m then
          invalid_arg "Driver: a regrouped NS-LCA has a group standing";
        Int_map.add id g m)
      groups gs
  in
  let pairs, src_child, sink_child, groups =
    Obs.Trace.with_span "nslca-group" (fun () -> group_projected lifter pairs)
  in
  let groups = ref (add_groups Int_map.empty groups) in
  let rounds = ref 0 in
  (* one span memo for the pass: each splice forgets its root path *)
  let memo = Sdpst.Analysis.memo tree in
  let span = Sdpst.Analysis.span memo in
  while not (Int_map.is_empty !groups) do
    incr rounds;
    if !rounds > 100_000 then
      raise (Unrepairable "incremental placement did not converge");
    let _, group = Int_map.min_binding !groups in
    let r = solve_group ~guard ~wrap_ok ~span group in
    let parent =
      match r.insertions with
      | [] ->
          (* cannot happen: a non-empty group always demands a finish *)
          raise (Unrepairable "placement produced no insertion")
      | ins :: _ ->
          (* splice only the first (outermost) finish this round; sibling
             indices of the others shift, so they are re-derived next
             round from the updated tree *)
          ignore
            (Sdpst.Tree.insert_finish tree ~parent:ins.parent
               ~lo:ins.child_lo ~hi:ins.child_hi);
          Sdpst.Analysis.forget_path memo ins.parent;
          results := { r with insertions = [ ins ] } :: !results;
          ins.parent
    in
    Obs.Trace.with_span "nslca-group" (fun () ->
        (* the groups to re-check: all of them after the first round,
           then those keyed on the splice parent's root path *)
        let stale =
          if !rounds = 1 then Int_map.bindings !groups
          else begin
            let rec path (n : Sdpst.Node.t) acc =
              if n < 0 then acc
              else
                let acc =
                  match Int_map.find_opt n !groups with
                  | Some g -> (n, g) :: acc
                  | None -> acc
                in
                path (Sdpst.Node.parent tree n) acc
            in
            path parent []
          end
        in
        let ks = Tdrutil.Ivec.create () in
        List.iter
          (fun (id, (g : Depgraph.lifted)) ->
            groups := Int_map.remove id !groups;
            Tdrutil.Ivec.iter (Tdrutil.Ivec.push ks) g.pairs)
          stale;
        (* each pair sits in one group: back to increasing order *)
        let ks =
          Array.sub (Tdrutil.Ivec.unsafe_data ks) 0 (Tdrutil.Ivec.length ks)
        in
        Array.sort Int.compare ks;
        groups :=
          add_groups !groups
            (group_indices ~mhp_only:true lifter ~src_child ~sink_child pairs
               (fun f -> Array.iter f ks)))
  done;
  let results = List.rev !results in
  (results, merge_demands ~scopes results, Pairs.length pairs)

(** Compute the placements demanded by [races] over the S-DPST
    (one detector run), without touching the program.  This is the
    "Dynamic Finish Placement" + location-mapping half of the pipeline;
    trace-file workflows drive it directly. *)
let place_for_tree ?(guard = Guard.make Guard.unlimited) ~program races =
  place_pairs ~guard ~program (Pairs.of_list races)

(* ------------------------------------------------------------------ *)
(* Full iterative repair                                               *)
(* ------------------------------------------------------------------ *)

let default_max_iterations = 10

let is_unrepairable = function Unrepairable _ -> true | _ -> false

(* S-DPST node budget: when the detection run's tree exceeds the budget,
   collapse every race-free region with {!Sdpst.Analysis.prune} — the
   paper's §9 garbage collection, placement-preserving because collapsed
   regions contain neither race endpoints nor needed insertion points —
   and continue on the pruned tree. *)
let enforce_sdpst_budget ~guard (tree : Sdpst.Node.tree) (pairs : Pairs.t) :
    unit =
  match (Guard.budgets guard).Guard.sdpst_nodes with
  | Some cap when tree.Sdpst.Node.n_nodes > cap ->
      (* one flag per node id: every id is below [next_id] *)
      let endpoint = Bytes.make tree.Sdpst.Node.next_id '\000' in
      for k = 0 to Pairs.length pairs - 1 do
        Bytes.set endpoint (Pairs.src_id pairs k) '\001';
        Bytes.set endpoint (Pairs.sink_id pairs k) '\001'
      done;
      let nodes_before = tree.Sdpst.Node.n_nodes in
      let removed =
        Sdpst.Analysis.prune tree ~keep:(fun n ->
            n < Bytes.length endpoint && Bytes.get endpoint n = '\001')
      in
      if removed > 0 then begin
        Log.warn (fun m ->
            m
              "S-DPST node budget (%d) exceeded: pruned %d of %d node(s) \
               before placement"
              cap removed nodes_before);
        Guard.note guard
          (Guard.Sdpst_pruned { nodes_before; nodes_removed = removed })
      end
  | _ -> ()

(* The repair loop behind {!repair} and {!repair_detected}.  The first
   iteration takes its detection from [first] when given; [last] is
   applied to the detection of the last iteration before the
   convergence checks run, so a caller that keeps nothing of it does not
   hold its S-DPST through them. *)
let run_repair (o : Options.t) ~validate_par ~first ~last
    (prog : Mhj.Ast.program) =
  let guard = Guard.make o.budgets in
  let fuel = Guard.effective_fuel o.budgets in
  let metrics = Obs.Metrics.create () in
  declare_metrics metrics;
  let backend =
    let pick, reason = Vclock.Select.resolve o.backend prog in
    if o.backend = `Auto then
      Log.info (fun m ->
          m "backend auto-selection: %a (%s)" Vclock.Select.pp_choice pick
            reason);
    pick
  in
  (* every iteration detects under the resolved pick *)
  let detect_options = { o with backend = (backend :> backend) } in
  Obs.Metrics.set metrics "detector.backend"
    (match backend with `Espbags -> 0 | `Vclock -> 1);
  let finish ?reference program iterations ~converged ~final_races =
    let verified_static, static_residual =
      if o.static_verify && converged then
        let summary, _mhp, cs =
          Guard.at_stage Diag.Lint (fun () ->
              Obs.Trace.with_span "static-verify" (fun () ->
                  Static.Racecheck.check program))
        in
        (Some (cs = []), Static.Racecheck.to_findings summary cs)
      else (None, [])
    in
    let validated_par =
      match validate_par with
      | Some req when converged ->
          let v =
            Guard.at_stage Diag.Interp (fun () ->
                Obs.Trace.with_span "validate-par" (fun () ->
                    Par.Validate.of_request ?fuel ?reference req program))
          in
          if v.Par.Validate.skipped > 0 then
            Guard.note guard
              (Guard.Validate_par_skipped
                 { ran = v.Par.Validate.ran; requested = v.Par.Validate.requested });
          Obs.Metrics.set metrics "engine.runs" v.Par.Validate.ran;
          Option.iter
            (fun s ->
              Obs.Metrics.add_all metrics (Par.Engine.stats_counters s))
            v.Par.Validate.engine;
          Some v
      | _ -> None
    in
    Obs.Metrics.set metrics "driver.iterations" (List.length iterations);
    Obs.Metrics.set metrics "driver.degradations"
      (List.length (Guard.degradations guard));
    {
      program;
      mode = o.mode;
      iterations = List.rev iterations;
      converged;
      final_races;
      degradations = Guard.degradations guard;
      verified_static;
      static_residual;
      validated_par;
      metrics = Obs.Metrics.snapshot metrics;
    }
  in
  (* One detection(+placement) round, wrapped in an "iteration" span; the
     recursion and the final report assembly stay outside the span.
     [first] is passed to the first round only, so the S-DPST of a
     supplied detection is garbage once that round has placed on it. *)
  let rec loop ?first program iterations remaining =
    let outcome =
      Obs.Trace.with_span "iteration"
        ~args:[ ("n", List.length iterations) ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      Faultinject.fire Faultinject.Detector_abort;
      Faultinject.fire_slow ();
      (* the pre-pass is recomputed per iteration: inserted finishes shrink
         the MHP relation, so later runs may skip more *)
      let d =
        match first with
        | Some d -> d
        | None -> detect detect_options program
      in
      (* gauges: the latest pre-pass describes the current program *)
      Option.iter
        (fun pr ->
          List.iter
            (fun (k, v) -> Obs.Metrics.set metrics k v)
            (Static.Prune.stats pr))
        d.prune;
      let res = d.run.result and stats = Lazy.force d.run.stats in
      let detect_time = Unix.gettimeofday () -. t0 in
      (* shadow sizes and RSS are gauges (the latest run's footprint),
         unlike the rest of the detector schema, which accumulates
         across iterations *)
      let shadow_gauge (k, _) =
        k = "detector.shadow_slabs" || k = "detector.shadow_words"
      in
      Obs.Metrics.add_all metrics
        (List.filter (fun kv -> not (shadow_gauge kv)) stats);
      List.iter
        (fun ((k, v) as kv) ->
          if shadow_gauge kv then Obs.Metrics.set metrics k v)
        stats;
      Obs.Metrics.set metrics "detector.peak_rss_kb" (Obs.Rusage.peak_rss_kb ());
      let pairs = Lazy.force d.pairs in
      if Pairs.length pairs = 0 then `Converged d
      else if remaining = 0 then `Exhausted (Pairs.n_races pairs, d)
      else begin
        let t1 = Unix.gettimeofday () in
        enforce_sdpst_budget ~guard res.Rt.Interp.tree pairs;
        let groups, merged, lifted =
          Guard.at_stage ~passthrough:is_unrepairable Diag.Place (fun () ->
              match o.placement with
              | `Batch -> place_batch ~guard ~program pairs
              | `Incremental ->
                  place_pairs_incremental ~guard ~program res.Rt.Interp.tree
                    pairs)
        in
        Faultinject.fire Faultinject.Insert_fail;
        let program' =
          Guard.at_stage Diag.Insert (fun () ->
              Obs.Trace.with_span "rewrite" (fun () ->
                  Static_place.apply program merged))
        in
        let place_time = Unix.gettimeofday () -. t1 in
        let iter =
          {
            n_races = Pairs.n_races pairs;
            n_race_pairs = Pairs.length pairs;
            n_groups = List.length groups;
            groups;
            merged;
            detect_time;
            place_time;
            sdpst_nodes = res.tree.Sdpst.Node.n_nodes;
            n_accesses = d.run.n_accesses;
            n_skipped = d.run.n_skipped;
          }
        in
        Obs.Metrics.add metrics "driver.races" iter.n_races;
        Obs.Metrics.add metrics "driver.race_pairs" iter.n_race_pairs;
        Obs.Metrics.add metrics "driver.lifted_pairs" lifted;
        Obs.Metrics.add metrics "driver.groups" iter.n_groups;
        Obs.Metrics.add metrics "driver.finishes_inserted"
          (List.length merged.placements);
        Log.info (fun m ->
            m "iteration: %d races (%d pairs) at %d NS-LCAs -> %d finish(es)"
              iter.n_races iter.n_race_pairs iter.n_groups
              (List.length merged.placements));
        `Next (program', iter)
      end
    in
    match outcome with
    | `Converged d ->
        (* the converged run is validation's sequential reference: keep
           its observation, not its S-DPST *)
        let reference =
          Option.map (fun _ -> Par.Validate.reference d.run.result) validate_par
        in
        let kept = last d in
        ( finish ?reference program iterations ~converged:true ~final_races:0,
          kept )
    | `Exhausted (n, d) ->
        let kept = last d in
        (finish program iterations ~converged:false ~final_races:n, kept)
    | `Next (program', iter) ->
        loop program' (iter :: iterations) (remaining - 1)
  in
  loop ?first prog [] default_max_iterations

(** Repair [prog]: iterate detection and placement until race-free.

    @param options the job options (default {!Options.default}).  Its
      [placement] decides how one iteration maps races to placements:
      [`Batch] solves every NS-LCA group against the one S-DPST of the
      detection run and merges the demands; [`Incremental] is the paper's
      §6.1 loop, splicing each finish into a live S-DPST and re-deriving
      the remaining races' NS-LCAs before the next placement.  Both
      converge to race-free programs; [`Batch] does less work per
      iteration on large race sets.  On budget exhaustion the repair
      degrades gracefully and records how in [degradations].
    @raise Unrepairable if some race admits no scope-valid fix
    @raise Diag.Fail on typed pipeline failures (see {!repair_checked} for
      the total variant) *)
let repair ?options:(o = Options.default) ?validate_par prog : report =
  fst (run_repair o ~validate_par ~first:None ~last:ignore prog)

(** {!repair} sharing its first and last detection runs with the caller
    (see driver.mli). *)
let repair_detected ?options:(o = Options.default) ?first prog :
    report * detection =
  run_repair o ~validate_par:None ~first ~last:Fun.id prog

let classify_unrepairable = function
  | Unrepairable m -> Some (Diag.make ~stage:Diag.Place m)
  | _ -> None

(** Total repair: every failure mode — malformed input, runtime faults of
    the analyzed program, fuel exhaustion, placement infeasibility,
    injected faults, internal invariant violations — comes back as a typed
    diagnostic instead of an exception. *)
let repair_checked ?options ?validate_par prog : (report, Diag.t) result =
  Guard.capture ~classify:classify_unrepairable (fun () ->
      repair ?options ?validate_par prog)

(** Total placements inserted across all iterations. *)
let total_placements (r : report) : Mhj.Transform.placement list =
  List.concat_map (fun it -> it.merged.Static_place.placements) r.iterations

(* ------------------------------------------------------------------ *)
(* Multi-input repair (paper §2: "the tool is applied iteratively for   *)
(* different test inputs")                                             *)
(* ------------------------------------------------------------------ *)

type multi_report = {
  final : Mhj.Ast.program;  (** repaired for every processable input *)
  per_input : (string * report) list;
      (** input label -> last successful repair run *)
  failures : (string * Diag.t) list;
      (** inputs whose repair failed or exhausted its budget; the
          remaining inputs are still processed *)
  all_converged : bool;  (** every input converged and none failed *)
  coverage : Coverage.t;  (** combined coverage of the executable inputs *)
}

(** Repair one program under several test inputs, each given as a set of
    int-global overrides ({!Mhj.Transform.set_global_int}).  Placements
    computed under any input are applied to the base program (statement
    and block ids are shared), and the loop continues until every input's
    execution is race-free.  An input that fails (parse/runtime fault,
    budget exhaustion, unrepairable race) is recorded in [failures] and
    does not stop the others.  Also reports the combined statement/async
    coverage of the input set — the paper's §9 test-suitability metric. *)
let repair_multi ?(options = Options.default)
    ~(inputs : (string * (string * int) list) list)
    (prog : Mhj.Ast.program) : multi_report =
  let max_rounds = 10 in
  let rec loop program round =
    let outcomes =
      List.map
        (fun (label, overrides) ->
          ( label,
            Guard.capture ~classify:classify_unrepairable (fun () ->
                repair ~options (Options.apply_sets overrides program)) ))
        inputs
    in
    let reports =
      List.filter_map
        (fun (label, o) ->
          match o with Ok r -> Some (label, r) | Error _ -> None)
        outcomes
    in
    let failures =
      List.filter_map
        (fun (label, o) ->
          match o with Error d -> Some (label, d) | Ok _ -> None)
        outcomes
    in
    (* Collect the placements every input demanded and re-apply them to
       the shared base program.  Placements from a repair run's second or
       later iterations may reference blocks that run created itself; they
       do not resolve against the base program this round and are simply
       re-discovered (and then resolved) in the next round. *)
    let scopes = Mhj.Scopecheck.build program in
    let known p =
      Hashtbl.mem scopes.Mhj.Scopecheck.blocks p.Mhj.Transform.bid
    in
    let demands =
      List.concat @@ List.mapi
        (fun input_idx ((_, r) : _ * report) ->
          List.filter_map
            (fun p -> if known p then Some (input_idx, p) else None)
            (total_placements r))
        reports
    in
    let merged = Static_place.merge ~scopes demands in
    let placements = merged.Static_place.placements in
    if placements = [] || round >= max_rounds then begin
      let cov_fuel = Guard.effective_fuel options.budgets in
      let trees =
        List.filter_map
          (fun (_, overrides) ->
            match
              Guard.capture (fun () ->
                  (Rt.Interp.run ?fuel:cov_fuel
                     (Options.apply_sets overrides program))
                    .tree)
            with
            | Ok tree -> Some tree
            | Error _ -> None)
          inputs
      in
      {
        final = program;
        per_input = reports;
        failures;
        all_converged =
          failures = []
          && List.for_all (fun ((_, r) : _ * report) -> r.converged) reports
          && placements = [];
        coverage = Coverage.of_runs program trees;
      }
    end
    else begin
      let program' = Mhj.Transform.insert_finishes program placements in
      loop program' (round + 1)
    end
  in
  loop prog 0
