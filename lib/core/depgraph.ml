(** Dependence graphs over NS-LCA subtrees (paper §5.1).

    For each unique non-scope least common ancestor [L] of a set of data
    races, the subtree rooted at [L] is reduced to a DAG whose vertices are
    the non-scope children of [L] (in left-to-right order) and whose edges
    are the races, lifted to the children containing their endpoints.
    Every edge goes from a left vertex to a right vertex because the race
    source precedes the sink in depth-first order.

    {b Vertex coalescing.}  The paper observes that [n] (the number of
    children) "is small in practice"; in our setting a loop that executes
    thousands of iterations under one scope makes [n] large enough that the
    O(n^3 d) DP becomes the bottleneck.  We therefore coalesce maximal runs
    of consecutive {e non-async} children that have identical dependence
    signatures (same predecessor and successor sets) into one super-vertex
    whose weight is their sequential composition.  This preserves the
    optimum: non-async children contribute pure drag (control passes only
    after they complete), so a finish boundary strictly between two
    signature-identical non-async children is never better than the same
    boundary moved to the run's edge.  Async children are never merged. *)

type t = {
  tree : Sdpst.Node.tree;
  lca : Sdpst.Node.t;
  first : Sdpst.Node.t array;  (** leftmost S-DPST child of each vertex *)
  last : Sdpst.Node.t array;  (** rightmost S-DPST child of each vertex *)
  times : int array;  (** t_i: sequential composition of the run's spans *)
  drags : int array;
      (** delay until the next vertex may start: 0 for an async, the span
          for steps and finishes, the {e summarized} drag for a scope
          collapsed by {!Sdpst.Analysis.prune} (< span when the scope
          contains asyncs that outlive it) *)
  is_async : bool array;  (** singleton async vertex? *)
  edges : (int * int) list;  (** deduplicated, 0-based vertex pairs *)
  cum : int array array;
      (** 2-D prefix sums of the edge matrix for O(1) crossing tests *)
  n_raw : int;  (** number of non-scope children before coalescing *)
}

let n_vertices g = Array.length g.times

let n_edges g = List.length g.edges

(** Non-scope children of [l] (paper Definition 3), left to right: descend
    through scope nodes only.  A scope collapsed by {!Sdpst.Analysis.prune}
    has no children left to descend into; it becomes a leaf vertex carrying
    its summarized span/drag (it contains no race endpoint by construction,
    so no finish boundary ever needs to fall inside it). *)
let nonscope_children tree (l : Sdpst.Node.t) : Sdpst.Node.t list =
  let acc = ref [] in
  let rec go n =
    Sdpst.Node.iter_children tree
      (fun c ->
        if
          Sdpst.Node.is_nonscope tree c
          || Sdpst.Node.collapsed tree c <> None
        then acc := c :: !acc
        else go c)
      n
  in
  go l;
  List.rev !acc

(** [are_crossing g ~i ~k ~j] — paper's [succ(i..k) ∩ {k+1..j} ≠ ∅] test
    (0-based here): does some edge go from a vertex in [i..k] to a vertex
    in [k+1..j]?  O(1) via 2-D prefix sums. *)
let are_crossing g ~i ~k ~j =
  let cum = g.cum in
  cum.(k + 1).(j + 1) - cum.(i).(j + 1) - cum.(k + 1).(k + 1) + cum.(i).(k + 1)
  > 0

let build_cum n edges =
  let cum = Array.make_matrix (n + 1) (n + 1) 0 in
  List.iter (fun (i, j) -> cum.(i + 1).(j + 1) <- cum.(i + 1).(j + 1) + 1) edges;
  for x = 1 to n do
    for y = 1 to n do
      cum.(x).(y) <-
        cum.(x).(y) + cum.(x - 1).(y) + cum.(x).(y - 1) - cum.(x - 1).(y - 1)
    done
  done;
  cum

type lifted = {
  tree : Sdpst.Node.tree;
  nslca : Sdpst.Node.t;
  pairs : Tdrutil.Ivec.t;
  src_child : Tdrutil.Ivec.t;
  sink_child : Tdrutil.Ivec.t;
}

(** Build the dependence graph of one NS-LCA group from its lifted step
    pairs, in report order.  Vertex weights come from [span]: the subtree
    completion time of each child under the current synchronization.

    Lifted children map to raw vertices by a binary search over the
    children's ids, once per run of equal children.  Node ids are
    depth-first preorder among steps ({!Sdpst.Node}), so a sink's raw
    vertex never decreases along the pairs and raw edges dedupe with a
    per-source stamp; the order is checked on every edge.
    @param coalesce merge signature-identical non-async runs (default
      [true]; the unit tests use [false] to exercise the paper's exact
      construction)
    @raise Invalid_argument if some lifted child is not a non-scope child
    of the NS-LCA, an edge is not left-to-right, or the sinks are out of
    report order. *)
let of_pairs ?(coalesce = true) ~(span : Sdpst.Node.t -> int) (l : lifted) : t
    =
  let lca = l.nslca and tree = l.tree in
  let children = Array.of_list (nonscope_children tree lca) in
  let n_raw = Array.length children in
  (* raw vertices in ascending child id; spliced finishes carry fresh
     ids, so the left-to-right order need not be sorted *)
  let by_id = Array.init n_raw Fun.id in
  let id_at v = children.(v) in
  let sorted = ref true in
  for v = 1 to n_raw - 1 do
    if id_at (v - 1) > id_at v then sorted := false
  done;
  if not !sorted then
    Array.sort (fun a b -> Int.compare (id_at a) (id_at b)) by_id;
  let raw_vertex_of id =
    let rec search lo hi =
      if lo >= hi then
        invalid_arg
          (Fmt.str "Depgraph.of_pairs: node %d is not a non-scope child of %a" id
             (Sdpst.Node.pp tree) lca)
      else
        let mid = (lo + hi) / 2 in
        let c = id_at by_id.(mid) in
        if c = id then by_id.(mid)
        else if c < id then search (mid + 1) hi
        else search lo mid
    in
    search 0 n_raw
  in
  let last_sink = ref (-1) and j = ref (-1) in
  let last_src = ref (-1) and i = ref (-1) in
  (* [stamp.(i) = j]: edge (i, j) already recorded for the current j *)
  let stamp = Array.make n_raw (-1) in
  let raw_edges = ref [] in
  for q = 0 to Tdrutil.Ivec.length l.pairs - 1 do
    let k = Tdrutil.Ivec.get l.pairs q in
    let sink = Tdrutil.Ivec.get l.sink_child k in
    if sink <> !last_sink then begin
      last_sink := sink;
      let j' = raw_vertex_of sink in
      if j' < !j then
        invalid_arg "Depgraph.of_pairs: sink vertices out of report order";
      j := j'
    end;
    let src = Tdrutil.Ivec.get l.src_child k in
    if src <> !last_src then begin
      last_src := src;
      i := raw_vertex_of src
    end;
    let i = !i and j = !j in
    if i >= j then
      invalid_arg
        (Fmt.str "Depgraph.of_pairs: race edge (%d, %d) is not left-to-right" i j);
    if stamp.(i) <> j then begin
      stamp.(i) <- j;
      raw_edges := (i, j) :: !raw_edges
    end
  done;
  let raw_edges = List.rev !raw_edges in
  (* Group raw children into vertices. *)
  let group_of = Array.make n_raw 0 in
  let n_groups =
    if not coalesce then begin
      Array.iteri (fun i _ -> group_of.(i) <- i) children;
      n_raw
    end
    else begin
      let preds = Array.make n_raw [] and succs = Array.make n_raw [] in
      List.iter
        (fun (i, j) ->
          succs.(i) <- j :: succs.(i);
          preds.(j) <- i :: preds.(j))
        raw_edges;
      (* Runs may span sibling scopes (e.g. the per-iteration read steps of
         a reduction loop): the exclusion tests in {!Valid.insertion_for}
         always consult the real boundary S-DPST nodes ([first]/[last]), so
         merging is transparent to placement validity.

         Two classes of non-async children merge:
         - identical signatures (same predecessor and successor sets);
         - {e pure sinks} (no outgoing edges), regardless of their
           predecessor sets.  A finish interval never benefits from ending
           strictly between two adjacent pure-drag sinks — ending before
           the whole run satisfies every edge into it at the same cost —
           and without this rule the per-instance merge steps of a
           divide-and-conquer benchmark (each racing with a slightly
           different subset of the child asyncs) blow the DP up to
           thousands of vertices. *)
      let class_of i =
        if succs.(i) = [] then `Sink
        else `Sig (List.sort compare preds.(i), List.sort compare succs.(i))
      in
      let g = ref (-1) in
      let prev_class = ref None in
      Array.iteri
        (fun i c ->
          let cl = class_of i in
          let async = Sdpst.Node.is_async tree c in
          let mergeable = (not async) && !prev_class = Some cl in
          if not mergeable then incr g;
          group_of.(i) <- !g;
          prev_class := if async then None else Some cl)
        children;
      !g + 1
    end
  in
  let first = Array.make n_groups children.(0) in
  let last = Array.make n_groups children.(0) in
  let times = Array.make n_groups 0 in
  let drags = Array.make n_groups 0 in
  let is_async = Array.make n_groups false in
  let seen_group = Array.make n_groups false in
  (* A child's own drag: 0 for an async, span for a step or finish, and
     for a scope collapsed by pruning the exact summarized drag — which
     is below its span when the collapsed region contains asyncs that
     outlive it.  Using the summary keeps the DP's cost model identical
     to the one the unpruned expansion would induce. *)
  let child_drag c =
    if Sdpst.Node.is_async tree c then 0
    else
      match Sdpst.Node.collapsed tree c with
      | Some (_, d) -> d
      | None -> span c
  in
  Array.iteri
    (fun i c ->
      let v = group_of.(i) in
      if not seen_group.(v) then begin
        seen_group.(v) <- true;
        first.(v) <- c;
        is_async.(v) <- Sdpst.Node.is_async tree c
      end;
      last.(v) <- c;
      (* runs compose sequentially: the next member starts after the
         previous one's drag; for steps and finishes drag = span, so
         this reduces to the old sum-of-spans *)
      times.(v) <- max times.(v) (drags.(v) + span c);
      drags.(v) <- drags.(v) + child_drag c)
    children;
  (* [group_of] is monotone, so group sinks never decrease either *)
  let gstamp = Array.make n_groups (-1) in
  let edges =
    List.filter_map
      (fun (i, j) ->
        let gi = group_of.(i) and gj = group_of.(j) in
        assert (gi < gj);
        if gstamp.(gi) = gj then None
        else begin
          gstamp.(gi) <- gj;
          Some (gi, gj)
        end)
      raw_edges
  in
  {
    tree;
    lca;
    first;
    last;
    times;
    drags;
    is_async;
    edges;
    cum = build_cum n_groups edges;
    n_raw;
  }

let pp ppf (g : t) =
  let node = Sdpst.Node.pp g.tree in
  Fmt.pf ppf "depgraph@@%a: %d vertices (%d raw), %d edges@\n" node g.lca
    (n_vertices g) g.n_raw (n_edges g);
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "  v%d = %a..%a (t=%d%s)@\n" i node c node g.last.(i) g.times.(i)
        (if g.is_async.(i) then ", async" else ""))
    g.first;
  List.iter (fun (i, j) -> Fmt.pf ppf "  v%d -> v%d@\n" i j) g.edges
