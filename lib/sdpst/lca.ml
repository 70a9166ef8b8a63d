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

(* ------------------------------------------------------------------ *)
(* Lifting race pairs: one root-path walk per sink                      *)
(* ------------------------------------------------------------------ *)

(* The sink's root path and the source climbs of one run are kept in
   arrays indexed by depth, which stay small and cache-resident: the
   ancestor of the sink at depth [d] is [path.(d)], so a node of depth [d]
   is on the path iff it is [path.(d)].  The climb memo holds, per depth,
   the key of the last climbed node of that depth, the depth of its LCA
   with the sink and the key of the shallowest non-scope node from it up
   to that LCA, exclusive (-1: none).  An entry depends only on its node
   and the sink, so a later climb may overwrite some entries and leave
   others: each stays true until the sink changes.  Plain arrays, not
   {!Tdrutil.Ivec}s: this is the inner loop of placement. *)
type lifter = {
  mutable sink : t option;  (** the sink of the current run *)
  mutable path : t array;  (** depth -> the sink's ancestor there *)
  mutable ns_up : int array;
      (** depth -> depth of the first non-scope node on the path at or
          above it *)
  mutable ns_down : int array;
      (** depth -> id of the shallowest non-scope node on the path
          strictly below it (-1 at the sink) *)
  mutable memo_key : int array;
      (** depth -> the key of the node climbed there, or -1 *)
  mutable memo_lca : int array;
  mutable memo_best : int array;
  mutable memo_hi : int;  (** deepest memo entry of this run *)
  mutable src_child : int;  (** key of the source's child *)
  mutable sink_child : int;
}

(* A climbed node's key: its id, whether it is an async and whether it
   is non-scope, in one int. *)
let key n =
  (4 * n.id)
  + (if n.kind = Async then 2 else 0)
  + if is_nonscope n then 1 else 0

let lifter () =
  {
    sink = None;
    path = [||];
    ns_up = [||];
    ns_down = [||];
    memo_key = [||];
    memo_lca = [||];
    memo_best = [||];
    memo_hi = -1;
    src_child = -1;
    sink_child = -1;
  }

let restart l = l.sink <- None

(* Grow every column to cover depth [d]. *)
let reserve l d (filler : t) =
  let len = Array.length l.memo_key in
  if d >= len then begin
    let cap = max (d + 1) (2 * len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    l.path <- grow l.path filler;
    l.ns_up <- grow l.ns_up 0;
    l.ns_down <- grow l.ns_down (-1);
    l.memo_key <- grow l.memo_key (-1);
    l.memo_lca <- grow l.memo_lca (-1);
    l.memo_best <- grow l.memo_best (-1)
  end

(* Start a run: record [sink]'s root path and forget the climbs. *)
let walk_sink l sink =
  l.sink <- Some sink;
  let d = sink.depth in
  reserve l d sink;
  let path = l.path in
  let rec walk n =
    path.(n.depth) <- n;
    match n.parent with Some p -> walk p | None -> ()
  in
  walk sink;
  let up = ref 0 in
  for k = 0 to d do
    if is_nonscope path.(k) then up := k;
    l.ns_up.(k) <- !up
  done;
  let down = ref (-1) in
  for k = d downto 0 do
    l.ns_down.(k) <- !down;
    if is_nonscope path.(k) then down := path.(k).id
  done;
  if l.memo_hi >= 0 then Array.fill l.memo_key 0 (l.memo_hi + 1) (-1);
  l.memo_hi <- -1

(** [lift l ~src ~sink] is [ns_lca src sink]; it also sets {!src_child}
    and {!sink_child} to the ids of the non-scope children of that NS-LCA
    containing [src] and [sink] (what {!nonscope_child_ancestor}
    returns).

    The sink's root path is walked once per run of calls with the same
    sink.  Each source climbs only until it meets that path, or a node
    an earlier source of the run climbed through.
    @raise Invalid_argument if one endpoint is an ancestor of the other,
      or they are not in one tree. *)
let lift l ~src ~sink =
  (match l.sink with Some s when s == sink -> () | _ -> walk_sink l sink);
  let top = src.depth in
  reserve l top sink;
  if top > l.memo_hi then l.memo_hi <- top;
  let path = l.path and keys = l.memo_key and path_len = sink.depth + 1 in
  (* climb from [src], recording each node in the memo, until the path
     or a node recorded by this run *)
  let n = ref src and stop = ref (-1) in
  while !stop < 0 do
    let v = !n in
    let d = v.depth in
    let k = key v in
    if (d < path_len && path.(d) == v) || keys.(d) = k then stop := d
    else begin
      keys.(d) <- k;
      match v.parent with
      | Some p -> n := p
      | None -> invalid_arg "Lca.lift: source and sink in different trees"
    end
  done;
  let stop = !stop in
  let on_path = stop < path_len && path.(stop) == !n in
  let lca = if on_path then stop else l.memo_lca.(stop) in
  (* fill the climbed depths top-down: a node's shallowest non-scope node
     below the LCA is the one above it, if any, else the first met *)
  let best = ref (if on_path then -1 else l.memo_best.(stop)) in
  for d = stop + 1 to top do
    let k = keys.(d) in
    if !best < 0 && k land 1 = 1 then best := k;
    l.memo_lca.(d) <- lca;
    l.memo_best.(d) <- !best
  done;
  let ns = l.ns_up.(lca) in
  let down = l.ns_down.(ns) in
  if !best < 0 || down < 0 then
    invalid_arg "Lca.lift: one endpoint is an ancestor of the other";
  l.src_child <- !best;
  l.sink_child <- down;
  path.(ns)

let src_child l = l.src_child lsr 2

let src_child_is_async l = l.src_child land 2 <> 0

let sink_child l = l.sink_child
