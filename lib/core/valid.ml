(** Scope-validity of candidate finish placements (paper Algorithm 2).

    A dynamic finish over dependence-graph vertices [i..j] is realizable
    only if a finish node can be introduced into the S-DPST as an ancestor
    of vertices [i..j] but of neither [i-1] nor [j+1] — otherwise the
    finish would cut across a lexical scope of the input program (the
    paper's Figure 5).  The paper tests this with LCA depths; we construct
    the witness insertion point directly, which subsumes the depth test and
    also yields the static program location:

    the new finish becomes a child of [p = lca(node_i, node_j)], adopting
    the contiguous range of [p]'s children from the child-ancestor of
    [node_i] to the child-ancestor of [node_j].  Validity additionally
    requires that the adopted range maps to whole statements — a step that
    resumes mid-statement after a call scope cannot be a finish boundary
    (see DESIGN.md §4). *)

type insertion = {
  parent : Sdpst.Node.t;  (** node under which the finish is spliced *)
  child_lo : int;  (** first adopted child index under [parent] *)
  child_hi : int;  (** last adopted child index *)
  placement : Mhj.Transform.placement;  (** static program location *)
}

(* The child of [p] on the path from [n] to [p] ([n] itself if its parent
   is [p]). *)
let child_ancestor ~p n =
  let rec go n =
    match n.Sdpst.Node.parent with
    | Some q when q.Sdpst.Node.id = p.Sdpst.Node.id -> n
    | Some q -> go q
    | None -> invalid_arg "Valid.child_ancestor: not a descendant"
  in
  go n

(* First and last statement index occupied by a child node of [p]. *)
let stmt_range (n : Sdpst.Node.t) =
  let last = if Sdpst.Node.is_step n then n.last_idx else n.origin_idx in
  (n.origin_idx, last)

(** Compute the S-DPST insertion realizing a finish over dependence-graph
    vertices [g.nodes.(i) .. g.nodes.(j)] (0-based, inclusive), or [None]
    if no scope-valid insertion exists.

    Candidates start at the tightest level ([lca(node_i, node_j)], or the
    parent for a single vertex) and climb through enclosing scope nodes;
    climbing stops once the finish would capture vertex [i-1] or [j+1]
    (the paper's Figure 5 constraint) or a non-scope node is reached.  Of
    the valid levels, the {e highest} is returned — the paper's §5.2 rule.
    Climbing can only pull enclosing scope structure (never another
    dependence-graph vertex) into the finish, and the highest level is
    what lets dynamic instances with differently-sized subproblems agree
    on one static program point (e.g. LUFact's last elimination step, a
    single async, maps to the same loop-wrapping finish as the full
    steps). *)
let insertion_for ?(wrap_ok = fun ~bid:_ ~lo:_ ~hi:_ -> true) (g : Depgraph.t)
    ~i ~j : insertion option =
  let ni = g.first.(i) and nj = g.last.(j) in
  let left = if i > 0 then Some g.last.(i - 1) else None in
  let right =
    if j + 1 < Depgraph.n_vertices g then Some g.first.(j + 1) else None
  in
  let candidate_at p : insertion option =
    let a = child_ancestor ~p ni and b = child_ancestor ~p nj in
    let lo, _ = stmt_range a in
    let _, hi = stmt_range b in
    (* Statement-boundary test: left sharing is benign (a preceding step
       that also touches statement [lo] — a condition or argument
       evaluation — merely gets that fragment pulled inside the finish);
       right sharing is not, because the statically wrapped range would
       swallow part of the following vertex, which may be a race sink the
       finish must precede. *)
    let child_lo = Sdpst.Node.child_index p a in
    let child_hi = Sdpst.Node.child_index p b in
    let left_ok =
      child_lo = 0
      ||
      let prev = Tdrutil.Vec.get p.Sdpst.Node.children (child_lo - 1) in
      Sdpst.Node.is_step prev || snd (stmt_range prev) < lo
    in
    let right_ok =
      child_hi = Tdrutil.Vec.length p.Sdpst.Node.children - 1
      ||
      let next = Tdrutil.Vec.get p.Sdpst.Node.children (child_hi + 1) in
      fst (stmt_range next) > hi
    in
    if left_ok && right_ok && wrap_ok ~bid:a.Sdpst.Node.origin_bid ~lo ~hi
    then
      Some
        {
          parent = p;
          child_lo;
          child_hi;
          placement = { Mhj.Transform.bid = a.Sdpst.Node.origin_bid; lo; hi };
        }
    else None
  in
  (* The finish must not become an ancestor of vertex i-1 or j+1; once an
     exclusion fails while climbing it fails at every higher level. *)
  let excluded p neighbour boundary =
    match neighbour with
    | None -> true
    | Some nb ->
        (not (Sdpst.Lca.is_ancestor p nb))
        || (child_ancestor ~p nb).Sdpst.Node.id <> boundary
  in
  let rec climb p best =
    let a = child_ancestor ~p ni and b = child_ancestor ~p nj in
    if
      not
        (excluded p left a.Sdpst.Node.id && excluded p right b.Sdpst.Node.id)
    then best
    else
      let best =
        match candidate_at p with Some c -> Some c | None -> best
      in
      match (Sdpst.Node.is_scope p, p.Sdpst.Node.parent) with
      | true, Some q -> climb q best
      | _ -> best
  in
  let p0 =
    if ni.Sdpst.Node.id = nj.Sdpst.Node.id then
      match ni.Sdpst.Node.parent with
      | Some p -> p
      | None -> invalid_arg "Valid.insertion_for: vertex is the root"
    else Sdpst.Lca.lca ni nj
  in
  climb p0 None

(** Paper Algorithm 2, literally: compare LCA depths of the candidate
    boundaries with their outside neighbours.  Retained for
    cross-validation against {!insertion_for} in the test suite. *)
let valid_by_depths (g : Depgraph.t) ~i ~j : bool =
  let n = Depgraph.n_vertices g in
  let d12 =
    if i = j && g.first.(i).Sdpst.Node.id = g.last.(i).Sdpst.Node.id then
      g.first.(i).Sdpst.Node.depth
    else (Sdpst.Lca.lca g.first.(i) g.last.(j)).Sdpst.Node.depth
  in
  let d1l =
    if i = 0 then min_int
    else (Sdpst.Lca.lca g.last.(i - 1) g.first.(i)).Sdpst.Node.depth
  in
  let d2r =
    if j = n - 1 then min_int
    else (Sdpst.Lca.lca g.last.(j) g.first.(j + 1)).Sdpst.Node.depth
  in
  not (d1l > d12 || d2r > d12)

(** Validity predicate for the DP: [valid ~i ~j] iff a scope-valid
    insertion exists for vertices [i..j].  Each interval is computed once
    into a dense n×n byte table (unknown / valid / invalid); the DP then
    recomputes {!insertion_for} for the intervals it finally chooses.

    @param wrap_ok declaration-visibility constraint (see
      {!Mhj.Scopecheck.wrap_ok}); defaults to unconstrained. *)
let make_checker ?wrap_ok (g : Depgraph.t) : i:int -> j:int -> bool =
  let n = Depgraph.n_vertices g in
  let table = Bytes.make (n * n) '\000' in
  fun ~i ~j ->
    let k = (i * n) + j in
    match Bytes.get table k with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        let v = Option.is_some (insertion_for ?wrap_ok g ~i ~j) in
        Bytes.set table k (if v then '\001' else '\002');
        v
