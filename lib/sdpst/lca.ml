(** Ancestor queries on the S-DPST: LCA, NS-LCA (paper Definitions 3-5) and
    the may-happen-in-parallel test (paper Theorem 1). *)

open Node

let parent_exn n =
  match n.parent with
  | Some p -> p
  | None -> invalid_arg "Lca: walked above the root"

(** [is_ancestor a n] — is [a] an ancestor of [n] (reflexively)? *)
let is_ancestor a n =
  let rec go n =
    if n.id = a.id then true
    else match n.parent with None -> false | Some p -> go p
  in
  go n

(** Least common ancestor of [a] and [b]. *)
let lca a b =
  let rec lift n k = if k = 0 then n else lift (parent_exn n) (k - 1) in
  let a, b =
    if a.depth >= b.depth then (lift a (a.depth - b.depth), b)
    else (a, lift b (b.depth - a.depth))
  in
  let rec walk a b = if a.id = b.id then a else walk (parent_exn a) (parent_exn b) in
  walk a b

(** First non-scope node on the path from [n] to the root, including [n]
    itself. *)
let rec first_nonscope n =
  if is_nonscope n then n else first_nonscope (parent_exn n)

(** Non-scope least common ancestor (Definition 4): the first non-scope
    node on the path from [lca a b] to the root. *)
let ns_lca a b = first_nonscope (lca a b)

(** [nonscope_child_ancestor ~anc n] — the non-scope child of [anc]
    (Definition 3) whose subtree contains [n]: the shallowest non-scope
    strict descendant of [anc] on the path from [n] to [anc].

    @raise Invalid_argument if [n] is not a strict descendant of [anc] or
    if a non-scope node interposes between the result and [anc]. *)
let nonscope_child_ancestor ~anc n =
  if n.id = anc.id then invalid_arg "nonscope_child_ancestor: n = anc";
  (* Walk up from [n] to [anc], keeping the last non-scope node passed
     ([anc] while there is none): everything above it is a scope. *)
  let rec up n found =
    if n.id = anc.id then found
    else
      let found = if is_nonscope n then n else found in
      match n.parent with
      | None -> invalid_arg "nonscope_child_ancestor: not a descendant"
      | Some p -> up p found
  in
  let c = up n anc in
  if c == anc then invalid_arg "nonscope_child_ancestor: all-scope path";
  c

(** Paper Theorem 1: two distinct steps [s1] (left) and [s2] (right) can
    execute in parallel iff the non-scope child of their NS-LCA that is an
    ancestor of [s1] is an async node. *)
let may_happen_in_parallel s1 s2 =
  if s1.id = s2.id then false
  else
    let left, right = if s1.id < s2.id then (s1, s2) else (s2, s1) in
    ignore right;
    let n = ns_lca s1 s2 in
    if n.id = left.id then false
    else
      let a = nonscope_child_ancestor ~anc:n left in
      is_async a
