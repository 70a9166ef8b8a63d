(** Structural updates to a built S-DPST.

    After the dynamic placement algorithm chooses a finish over a range of
    an NS-LCA's children, the paper's static placement (§6.1 step 3d)
    inserts the corresponding finish {e node} into the S-DPST so that later
    NS-LCA groups see the updated tree.  {!insert_finish} performs that
    splice: a new finish node adopts a contiguous range of siblings. *)

open Node

let rec renumber_depths t n =
  let d = depth t n + 1 in
  iter_children t
    (fun c ->
      set_depth t c d;
      renumber_depths t c)
    n

(** [insert_finish tree ~parent ~lo ~hi] splices a new finish node over
    children [lo..hi] (inclusive) of [parent].  The new node inherits the
    static origin of the leftmost adopted child, so its position still maps
    to the program point where the static pass inserts the [finish]
    statement.  Returns the new finish node.

    The splice rule: the new node is appended to the arena, takes the
    adopted range's sibling links as its child list (the range's last
    child ends it), and takes the range's place among [parent]'s
    children; only the adopted children's parents and their subtrees'
    depths are rewritten.  Its id comes from the tree's allocator
    ([next_id]), past every id the tree ever handed out — also after
    {!Analysis.prune} lowered the live count — so it is unique.  Ids
    are then no longer depth-first preorder numbers, nor a left-to-right
    order within a sibling list; steps keep their preorder ids. *)
let insert_finish t ~parent ~lo ~hi =
  let n_children = n_children t parent in
  if lo < 0 || hi >= n_children || lo > hi then
    invalid_arg
      (Fmt.str "Tree.insert_finish: range [%d..%d] out of bounds 0..%d" lo hi
         (n_children - 1));
  let prev = ref none and first = ref (first_child t parent) in
  for _ = 1 to lo do
    prev := !first;
    first := next_sibling t !first
  done;
  let first = !first and prev = !prev in
  let last = ref first in
  for _ = lo + 1 to hi do
    last := next_sibling t !last
  done;
  let last = !last in
  let after = next_sibling t last in
  let fin = t.next_id in
  place t fin ~parent ~prev ~kind:Finish ~sid:(-1)
    ~origin_bid:(origin_bid t first) ~origin_idx:(origin_idx t first)
    ~body_bid:(origin_bid t first) ~cost:0 ~last_idx:(last_idx t last);
  set_next_sibling t fin after;
  set_next_sibling t last none;
  set_first_child t fin first;
  iter_children t (fun c -> set_parent t c fin) fin;
  renumber_depths t fin;
  fin

(** All steps of the tree, in depth-first (= program) order. *)
let steps t =
  let acc = ref [] in
  iter_tree (fun n -> if is_step t n then acc := n :: !acc) t;
  List.rev !acc
