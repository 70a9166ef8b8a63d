(** Structural updates to a built S-DPST.

    After the dynamic placement algorithm chooses a finish over a range of
    an NS-LCA's children, the paper's static placement (§6.1 step 3d)
    inserts the corresponding finish {e node} into the S-DPST so that later
    NS-LCA groups see the updated tree.  {!insert_finish} performs that
    splice: a new finish node adopts a contiguous range of siblings. *)

open Node

let rec renumber_depths n =
  Tdrutil.Vec.iter
    (fun c ->
      c.depth <- n.depth + 1;
      renumber_depths c)
    n.children

(** [insert_finish tree ~parent ~lo ~hi] splices a new finish node over
    children [lo..hi] (inclusive) of [parent].  The new node inherits the
    static origin of the leftmost adopted child, so its position still maps
    to the program point where the static pass inserts the [finish]
    statement.  Returns the new finish node.

    Note: the new node's [id] comes from the tree's allocator
    ([next_id]), past every id the tree ever handed out — also after
    {!Analysis.prune} lowered the live count — so it is unique.  Ids
    are then no longer depth-first preorder numbers, nor a left-to-right
    order within a sibling list; steps keep their preorder ids. *)
let insert_finish tree ~parent ~lo ~hi =
  let n_children = Tdrutil.Vec.length parent.children in
  if lo < 0 || hi >= n_children || lo > hi then
    invalid_arg
      (Fmt.str "Tree.insert_finish: range [%d..%d] out of bounds 0..%d" lo hi
         (n_children - 1));
  let first = Tdrutil.Vec.get parent.children lo in
  let last = Tdrutil.Vec.get parent.children hi in
  let fin =
    {
      id = tree.next_id;
      kind = Finish;
      parent = Some parent;
      depth = parent.depth + 1;
      children = Tdrutil.Vec.create ();
      sid = -1;
      origin_bid = first.origin_bid;
      origin_idx = first.origin_idx;
      body_bid = first.origin_bid;
      cost = 0;
      last_idx = last.last_idx;
      collapsed = None;
    }
  in
  tree.n_nodes <- tree.n_nodes + 1;
  tree.next_id <- tree.next_id + 1;
  for i = lo to hi do
    let c = Tdrutil.Vec.get parent.children i in
    c.parent <- Some fin;
    Tdrutil.Vec.push fin.children c
  done;
  Tdrutil.Vec.replace_range parent.children ~lo ~hi fin;
  renumber_depths fin;
  fin

(** All steps of the tree, in depth-first (= program) order. *)
let steps tree =
  let acc = ref [] in
  iter_tree (fun n -> if is_step n then acc := n :: !acc) tree;
  List.rev !acc
