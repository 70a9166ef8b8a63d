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
type memo = { tree : tree; spans : Tdrutil.Ivec.t; drags : Tdrutil.Ivec.t }

let memo tree =
  { tree; spans = Tdrutil.Ivec.create (); drags = Tdrutil.Ivec.create () }

(* Evaluate [n] into [m]: sequential composition of its children — each
   child starts when the previous child's drag has elapsed, and the
   sequence's span is the max over child start + child span.  Memoised,
   so the mutual span/drag recursion visits each subtree once. *)
let rec eval m n =
  if n >= Tdrutil.Ivec.length m.spans then begin
    Tdrutil.Ivec.ensure m.spans (n + 1) ~fill:(-1);
    Tdrutil.Ivec.ensure m.drags (n + 1) ~fill:(-1)
  end;
  if Tdrutil.Ivec.unsafe_get m.spans n < 0 then begin
    let t = m.tree in
    let span, drag =
      match collapsed t n with
      | Some (span, drag) -> (span, if is_async t n then 0 else drag)
      | None when is_step t n -> (cost t n, cost t n)
      | None ->
          let start = ref 0 and span = ref 0 in
          let c = ref (first_child t n) in
          while !c >= 0 do
            let c' = !c in
            eval m c';
            span := Int.max !span (!start + Tdrutil.Ivec.unsafe_get m.spans c');
            start := !start + Tdrutil.Ivec.unsafe_get m.drags c';
            c := next_sibling t c'
          done;
          let drag =
            if is_async t n then 0 else if is_scope t n then !start else !span
          in
          (!span, drag)
    in
    Tdrutil.Ivec.unsafe_set m.spans n span;
    Tdrutil.Ivec.unsafe_set m.drags n drag
  end

let span m n =
  eval m n;
  Tdrutil.Ivec.unsafe_get m.spans n

let drag m n =
  eval m n;
  Tdrutil.Ivec.unsafe_get m.drags n

(* A splice changes the span and drag of the splice parent and its
   ancestors only; the new node's fresh id was never evaluated. *)
let rec forget_path m n =
  if n >= 0 then begin
    if n < Tdrutil.Ivec.length m.spans then
      Tdrutil.Ivec.unsafe_set m.spans n (-1);
    forget_path m (parent m.tree n)
  end

(** Critical path length of the whole execution (Definition 1). *)
let critical_path_length t = span (memo t) root

(** Total work: sum of all step costs (serial-elision execution time). *)
let work t =
  let acc = ref 0 in
  iter_tree (fun n -> if is_step t n then acc := !acc + cost t n) t;
  !acc

(** Span/drag evaluators sharing one memo, for repeated queries against
    an unchanging tree (the dynamic-placement DP queries spans of many
    children). *)
let span_memo t =
  let m = memo t in
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
    only when it is spawn-free: its subtree holds no async and no finish
    ({!Node.spawns}).  Then its expansion is a run of pure-drag sinks,
    which vertex coalescing merges away anyway.  Otherwise pruning
    recurses, still collapsing the race-free async/finish subtrees below
    it.  So a collapsed scope is spawn-free also in a tree read back
    from a dump ({!Serial}), where its subtree is gone.  Returns the
    number of nodes removed. *)
let prune t ~keep =
  let removed = ref 0 in
  let rec subtree_size n = fold_children t (fun acc c -> acc + subtree_size c) 1 n in
  let rec contains_kept n = keep n || exists_child t contains_kept n in
  let scope_safe c = (not (is_scope t c)) || not (spawns t c) in
  (* one memo for the whole pass: collapsing a subtree keeps its exact
     (span, drag), so no evaluated entry goes stale *)
  let m = memo t in
  let rec go n =
    iter_children t
      (fun c ->
        if (not (is_step t c)) && (not (contains_kept c)) && scope_safe c
        then begin
          removed := !removed + subtree_size c - 1;
          set_collapsed t c (span m c, drag m c)
        end
        else go c)
      n
  in
  go root;
  t.n_nodes <- t.n_nodes - !removed;
  !removed
