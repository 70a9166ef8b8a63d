(** Timing analysis over the S-DPST.

    Under the ideal (unbounded-processor) execution model of the paper's
    Definition 1, each node of the S-DPST has:

    - a {e span}: time from the node starting until {e all} work in its
      subtree has completed (for the root this is the program's critical
      path length, CPL);
    - a {e drag}: time from the node starting until control {e passes} it
      and the next sibling may start — 0 for an async (the parent continues
      immediately), the full span for a finish (the parent blocks), the
      step cost for a step, and the sequential composition of its children
      for a scope.

    These are the [t_i] node weights and [EST] base cases of the paper's
    Algorithm 1.  [work] is the total step cost, i.e. the execution time of
    the serial elision. *)

open Node

(* Span and drag of every evaluated node, in two columns indexed by node
   id (-1: not evaluated yet; spans and drags are never negative).  Ids
   are dense and unique ({!Node.tree}), so the columns grow to at most
   the tree's [next_id]. *)
type memo = { spans : Tdrutil.Ivec.t; drags : Tdrutil.Ivec.t }

let memo () = { spans = Tdrutil.Ivec.create (); drags = Tdrutil.Ivec.create () }

(* Evaluate [n] into [m]: sequential composition of its children — each
   child starts when the previous child's drag has elapsed, and the
   sequence's span is the max over child start + child span.  Memoised,
   so the mutual span/drag recursion visits each subtree once. *)
let rec eval m n =
  let id = n.id in
  if id >= Tdrutil.Ivec.length m.spans then begin
    Tdrutil.Ivec.ensure m.spans (id + 1) ~fill:(-1);
    Tdrutil.Ivec.ensure m.drags (id + 1) ~fill:(-1)
  end;
  if Tdrutil.Ivec.unsafe_get m.spans id < 0 then begin
    let span, drag =
      match (n.collapsed, n.kind) with
      | Some (span, drag), _ -> (span, if n.kind = Async then 0 else drag)
      | None, Step -> (n.cost, n.cost)
      | None, (Root | Async | Finish | Scope _) ->
          let start = ref 0 and span = ref 0 in
          let children = n.children in
          for i = 0 to Tdrutil.Vec.length children - 1 do
            let c = Tdrutil.Vec.unsafe_get children i in
            eval m c;
            let c_span = Tdrutil.Ivec.unsafe_get m.spans c.id in
            span := Int.max !span (!start + c_span);
            start := !start + Tdrutil.Ivec.unsafe_get m.drags c.id
          done;
          let drag =
            match n.kind with
            | Async -> 0
            | Root | Finish -> !span
            | _ -> !start
          in
          (!span, drag)
    in
    Tdrutil.Ivec.unsafe_set m.spans id span;
    Tdrutil.Ivec.unsafe_set m.drags id drag
  end

let span m n =
  eval m n;
  Tdrutil.Ivec.unsafe_get m.spans n.id

let drag m n =
  eval m n;
  Tdrutil.Ivec.unsafe_get m.drags n.id

(* A splice changes the span and drag of the splice parent and its
   ancestors only; the new node's fresh id was never evaluated. *)
let rec forget_path m n =
  if n.id < Tdrutil.Ivec.length m.spans then
    Tdrutil.Ivec.unsafe_set m.spans n.id (-1);
  match n.parent with Some p -> forget_path m p | None -> ()

let span_of n = span (memo ()) n

(** Critical path length of the whole execution (Definition 1). *)
let critical_path_length tree = span_of tree.root

(** Total work: sum of all step costs (serial-elision execution time). *)
let work tree =
  let acc = ref 0 in
  iter_tree (fun n -> if is_step n then acc := !acc + n.cost) tree;
  !acc

(** Span/drag evaluators sharing one memo, for repeated queries against
    an unchanging tree (the dynamic-placement DP queries spans of many
    children). *)
let span_memo () =
  let m = memo () in
  (span m, drag m)

(* ------------------------------------------------------------------ *)
(* S-DPST pruning (paper §9 future work)                               *)
(* ------------------------------------------------------------------ *)

(** [prune tree ~keep] collapses subtrees containing no node for which
    [keep] holds into a single summary leaf carrying the subtree's exact
    (span, drag).  This is the paper's proposed garbage-collection of
    race-free S-DPST regions.

    Placements computed on the pruned tree are unchanged because
    collapsed regions contain neither race endpoints nor {e useful}
    finish boundaries — with one exception that bounds what may
    collapse.  Async and finish subtrees are always safe: they appear as
    single vertices in any dependence graph, so only their summary
    matters, and the stored (span, drag) is exact.  A {e scope} subtree,
    however, is expanded by {!Depgraph.nonscope_children} into its
    non-scope descendants: if any of those is an async, the optimal
    finish interval may need to end strictly inside the expansion (to
    leave a trailing race-free async outside the wait), and collapsing
    the scope to one sequential leaf would hide that boundary and
    deterministically shift the DP to a different, longer placement
    (e.g. progen seed 451531: CPL 409 vs 449).  So a scope collapses
    only when its subtree spawns no task — then its expansion is a run
    of pure-drag sinks, which vertex coalescing merges away anyway —
    and otherwise pruning recurses, still collapsing the race-free
    async/finish subtrees below it.  Returns the number of nodes
    removed. *)
let prune tree ~keep =
  let removed = ref 0 in
  let rec subtree_size n =
    Tdrutil.Vec.fold (fun acc c -> acc + subtree_size c) 1 n.children
  in
  let rec contains_kept n =
    keep n || Tdrutil.Vec.exists contains_kept n.children
  in
  let rec contains_async n =
    n.kind = Async || Tdrutil.Vec.exists contains_async n.children
  in
  let scope_safe c =
    match c.kind with Scope _ -> not (contains_async c) | _ -> true
  in
  (* one memo for the whole pass: collapsing a subtree keeps its exact
     (span, drag), so no evaluated entry goes stale *)
  let m = memo () in
  let rec go n =
    Tdrutil.Vec.iter
      (fun c ->
        if (not (is_step c)) && (not (contains_kept c)) && scope_safe c
        then begin
          removed := !removed + subtree_size c - 1;
          let summary = (span m c, drag m c) in
          Tdrutil.Vec.clear c.children;
          c.collapsed <- Some summary
        end
        else go c)
      n.children
  in
  go tree.root;
  tree.n_nodes <- tree.n_nodes - !removed;
  !removed
