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
let child_ancestor t ~p n =
  (* above the root: [Invalid_argument] for node -1 *)
  let rec go n =
    let q = Sdpst.Node.parent t n in
    if q = p then n else go q
  in
  go n

(* First and last statement index occupied by a child node of [p]. *)
let stmt_range t (n : Sdpst.Node.t) =
  let first = Sdpst.Node.origin_idx t n in
  let last = if Sdpst.Node.is_step t n then Sdpst.Node.last_idx t n else first in
  (first, last)

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
  let t = g.tree in
  let ni = g.first.(i) and nj = g.last.(j) in
  let left = if i > 0 then Some g.last.(i - 1) else None in
  let right =
    if j + 1 < Depgraph.n_vertices g then Some g.first.(j + 1) else None
  in
  let candidate_at p : insertion option =
    let a = child_ancestor t ~p ni and b = child_ancestor t ~p nj in
    let lo, _ = stmt_range t a in
    let _, hi = stmt_range t b in
    (* Statement-boundary test: left sharing is benign (a preceding step
       that also touches statement [lo] — a condition or argument
       evaluation — merely gets that fragment pulled inside the finish);
       right sharing is not, because the statically wrapped range would
       swallow part of the following vertex, which may be a race sink the
       finish must precede. *)
    let child_lo = Sdpst.Node.child_index t p a in
    let child_hi = Sdpst.Node.child_index t p b in
    let left_ok =
      let prev = Sdpst.Node.prev_sibling t a in
      prev < 0 || Sdpst.Node.is_step t prev || snd (stmt_range t prev) < lo
    in
    let right_ok =
      let next = Sdpst.Node.next_sibling t b in
      next < 0 || fst (stmt_range t next) > hi
    in
    let bid = Sdpst.Node.origin_bid t a in
    if left_ok && right_ok && wrap_ok ~bid ~lo ~hi then
      Some
        {
          parent = p;
          child_lo;
          child_hi;
          placement = { Mhj.Transform.bid; lo; hi };
        }
    else None
  in
  (* The finish must not become an ancestor of vertex i-1 or j+1; once an
     exclusion fails while climbing it fails at every higher level. *)
  let excluded p neighbour boundary =
    match neighbour with
    | None -> true
    | Some nb ->
        (not (Sdpst.Lca.is_ancestor t p nb))
        || child_ancestor t ~p nb <> boundary
  in
  let rec climb p best =
    let a = child_ancestor t ~p ni and b = child_ancestor t ~p nj in
    if not (excluded p left a && excluded p right b) then best
    else
      let best =
        match candidate_at p with Some c -> Some c | None -> best
      in
      let q = Sdpst.Node.parent t p in
      if Sdpst.Node.is_scope t p && q >= 0 then climb q best else best
  in
  let p0 =
    if ni = nj then begin
      let p = Sdpst.Node.parent t ni in
      if p < 0 then invalid_arg "Valid.insertion_for: vertex is the root";
      p
    end
    else Sdpst.Lca.lca t ni nj
  in
  climb p0 None

(** Paper Algorithm 2, literally: compare LCA depths of the candidate
    boundaries with their outside neighbours.  Retained for
    cross-validation against {!insertion_for} in the test suite. *)
let valid_by_depths (g : Depgraph.t) ~i ~j : bool =
  let n = Depgraph.n_vertices g and t = g.tree in
  let lca_depth a b = Sdpst.Node.depth t (Sdpst.Lca.lca t a b) in
  let d12 =
    if i = j && g.first.(i) = g.last.(i) then Sdpst.Node.depth t g.first.(i)
    else lca_depth g.first.(i) g.last.(j)
  in
  let d1l = if i = 0 then min_int else lca_depth g.last.(i - 1) g.first.(i) in
  let d2r =
    if j = n - 1 then min_int else lca_depth g.last.(j) g.first.(j + 1)
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
