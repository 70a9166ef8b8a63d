(** Human-readable repair reports.

    Renders a {!Driver.report} the way the paper's artifact does: the
    source positions where additional [finish] constructs should be
    inserted, plus per-iteration statistics and — as the paper's §9
    "context-sensitive finishes" future-work extension — the set of
    dynamic calling contexts (NS-LCA instances) that demanded each static
    placement. *)

(* Source span of a static placement: locations of the first and last
   wrapped statements. *)
let placement_span (scopes : Mhj.Scopecheck.t)
    (p : Mhj.Transform.placement) : (Mhj.Loc.t * Mhj.Loc.t) option =
  match Hashtbl.find_opt scopes.Mhj.Scopecheck.blocks p.bid with
  | Some stmts when p.lo < Array.length stmts && p.hi < Array.length stmts ->
      Some (stmts.(p.lo).Mhj.Ast.sloc, stmts.(p.hi).Mhj.Ast.sloc)
  | _ -> None

let pp_placement_loc scopes ppf (p : Mhj.Transform.placement) =
  match placement_span scopes p with
  | Some (lo, hi) when not (Mhj.Loc.is_dummy lo) ->
      if lo.Mhj.Loc.line = hi.Mhj.Loc.line then
        Fmt.pf ppf "line %d" lo.Mhj.Loc.line
      else Fmt.pf ppf "lines %d-%d" lo.Mhj.Loc.line hi.Mhj.Loc.line
  | _ -> Fmt.pf ppf "block %d, statements %d..%d" p.bid p.lo p.hi

(** How many dynamic NS-LCA instances demanded each static placement —
    the evidence for a context-sensitive finish (a placement demanded by
    only some contexts could be guarded by a condition).  A demand counts
    towards the inserted placement that absorbed it. *)
let contexts_per_placement scopes (it : Driver.iteration) :
    (Mhj.Transform.placement * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g : Driver.group_result) ->
      List.iter
        (fun (ins : Valid.insertion) ->
          let p = Static_place.absorbing ~scopes it.merged ins.placement in
          let key = (p.bid, p.lo, p.hi) in
          Hashtbl.replace tbl key
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
        g.insertions)
    it.groups;
  Hashtbl.fold
    (fun (bid, lo, hi) count acc ->
      ({ Mhj.Transform.bid; lo; hi }, count) :: acc)
    tbl []
  |> List.sort (fun ((a : Mhj.Transform.placement), _) (b, _) ->
         compare (a.bid, a.lo, a.hi) (b.bid, b.lo, b.hi))

let pp_iteration scopes ppf (idx, (it : Driver.iteration)) =
  Fmt.pf ppf "iteration %d: %d race report(s), %d distinct step pair(s), %d \
              NS-LCA group(s), %d S-DPST node(s)@\n"
    (idx + 1) it.n_races it.n_race_pairs it.n_groups it.sdpst_nodes;
  if it.n_skipped > 0 then
    Fmt.pf ppf
      "  static prune: %d access(es) checked, %d skipped as provably \
       sequential@\n"
      it.n_accesses it.n_skipped;
  List.iter
    (fun (p, n_contexts) ->
      Fmt.pf ppf "  insert finish around %a  (demanded by %d dynamic \
                  context(s))@\n"
        (pp_placement_loc scopes) p n_contexts)
    (contexts_per_placement scopes it);
  if it.merged.Static_place.n_merged > 0 then
    Fmt.pf ppf "  (%d crossing placement(s) merged by range union)@\n"
      it.merged.Static_place.n_merged

(** Render the full report for program [original]. *)
let pp ppf ((original, r) : Mhj.Ast.program * Driver.report) =
  let scopes = Mhj.Scopecheck.build original in
  Fmt.pf ppf "repair with %a ESP-bags: %s after %d iteration(s)@\n"
    Espbags.Detector.pp_mode r.mode
    (if r.converged then "race-free" else
       Fmt.str "NOT converged (%d race(s) remain)" r.final_races)
    (List.length r.iterations);
  List.iteri (fun i it -> pp_iteration scopes ppf (i, it)) r.iterations;
  if r.degradations <> [] then begin
    Fmt.pf ppf "degraded: budget limits changed how this repair ran:@\n";
    List.iter
      (fun d -> Fmt.pf ppf "  - %a@\n" Guard.pp_degradation d)
      r.degradations
  end;
  (match r.verified_static with
  | Some true ->
      Fmt.pf ppf
        "statically verified: race-free for all inputs (no unproven MHP \
         pair)@\n"
  | Some false ->
      Fmt.pf ppf
        "static verification incomplete: %d unproven pair(s) remain — \
         race-free for this input only:@\n"
        (List.length r.static_residual);
      List.iter
        (fun f -> Fmt.pf ppf "  - %a@\n" Static.Finding.pp f)
        r.static_residual
  | None -> ());
  match r.validated_par with
  | Some v ->
      Fmt.pf ppf "parallel validation: %a@\n" Par.Validate.pp v
  | None -> ()

let to_string original r = Fmt.str "%a" pp (original, r)
