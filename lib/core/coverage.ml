(** Test-coverage analysis (paper §9 future work).

    "Test coverage analysis to evaluate the suitability of a given set of
    test cases for program repair": a repair is only as good as the inputs
    it has seen, so this module measures which static statements — and in
    particular which [async] statements, the sources of parallelism — were
    exercised by an execution.  Unexecuted asyncs may hide races no test
    has triggered. *)

type t = {
  total_stmts : int;
  covered_stmts : int;
  total_asyncs : int;
  covered_asyncs : int;
  uncovered_asyncs : Mhj.Loc.t list;  (** source locations of unexercised asyncs *)
}

let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b

let stmt_coverage c = ratio c.covered_stmts c.total_stmts

let async_coverage c = ratio c.covered_asyncs c.total_asyncs

(** Combine coverage of one program over several executions (multiple test
    inputs): a statement is covered if any execution covered it. *)
let of_runs (prog : Mhj.Ast.program) (trees : Sdpst.Node.tree list) : t =
  let scopes = Mhj.Scopecheck.build prog in
  let covered : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  (* sid of statement at (bid, idx) *)
  let sid_at bid idx =
    match Hashtbl.find_opt scopes.Mhj.Scopecheck.blocks bid with
    | Some stmts when idx >= 0 && idx < Array.length stmts ->
        Some stmts.(idx).Mhj.Ast.sid
    | _ -> None
  in
  let mark bid idx =
    match sid_at bid idx with
    | Some sid -> Hashtbl.replace covered sid ()
    | None -> ()
  in
  List.iter
    (fun tree ->
      let module N = Sdpst.Node in
      N.iter_tree
        (fun n ->
          let bid = N.origin_bid tree n in
          if N.is_step tree n then
            for idx = N.origin_idx tree n to N.last_idx tree n do
              mark bid idx
            done
          else if N.sid tree n >= 0 then mark bid (N.origin_idx tree n))
        tree)
    trees;
  let total_stmts = ref 0 in
  let covered_stmts = ref 0 in
  let total_asyncs = ref 0 in
  let covered_asyncs = ref 0 in
  let uncovered_asyncs = ref [] in
  Mhj.Ast.iter_stmts
    (fun st ->
      incr total_stmts;
      let is_covered = Hashtbl.mem covered st.sid in
      if is_covered then incr covered_stmts;
      match st.s with
      | Mhj.Ast.Async _ ->
          incr total_asyncs;
          if is_covered then incr covered_asyncs
          else uncovered_asyncs := st.sloc :: !uncovered_asyncs
      | _ -> ())
    prog;
  {
    total_stmts = !total_stmts;
    covered_stmts = !covered_stmts;
    total_asyncs = !total_asyncs;
    covered_asyncs = !covered_asyncs;
    uncovered_asyncs = List.rev !uncovered_asyncs;
  }

let pp ppf c =
  Fmt.pf ppf
    "statement coverage %d/%d (%.0f%%), async coverage %d/%d (%.0f%%)"
    c.covered_stmts c.total_stmts
    (100. *. stmt_coverage c)
    c.covered_asyncs c.total_asyncs
    (100. *. async_coverage c);
  if c.uncovered_asyncs <> [] then
    Fmt.pf ppf "; uncovered asyncs at %a"
      (Fmt.list ~sep:(Fmt.any ", ") Mhj.Loc.pp)
      c.uncovered_asyncs
