(** Ancestor queries on the S-DPST: LCA, NS-LCA (paper Definitions 3-5) and
    the may-happen-in-parallel test (paper Theorem 1). *)

(* A walk above the root asks for node -1: [Invalid_argument]. *)
open Node

(** [is_ancestor t a n] — is [a] an ancestor of [n] (reflexively)? *)
let is_ancestor t a n =
  let rec go n = n = a || (n >= 0 && go (parent t n)) in
  n >= 0 && go n

(** Least common ancestor of [a] and [b]. *)
let lca t a b =
  let rec lift n k = if k = 0 then n else lift (parent t n) (k - 1) in
  let da = depth t a and db = depth t b in
  let a, b = if da >= db then (lift a (da - db), b) else (a, lift b (db - da)) in
  let rec walk a b = if a = b then a else walk (parent t a) (parent t b) in
  walk a b

(** First non-scope node on the path from [n] to the root, including [n]
    itself. *)
let rec first_nonscope t n =
  if is_nonscope t n then n else first_nonscope t (parent t n)

(** Non-scope least common ancestor (Definition 4): the first non-scope
    node on the path from [lca a b] to the root. *)
let ns_lca t a b = first_nonscope t (lca t a b)

(** [nonscope_child_ancestor t ~anc n] — the non-scope child of [anc]
    (Definition 3) whose subtree contains [n]: the shallowest non-scope
    strict descendant of [anc] on the path from [n] to [anc].

    @raise Invalid_argument if [n] is not a strict descendant of [anc] or
    all nodes between are scopes. *)
let nonscope_child_ancestor t ~anc n =
  if n = anc then invalid_arg "nonscope_child_ancestor: n = anc";
  (* Walk up from [n] to [anc], keeping the last non-scope node passed
     ([anc] while there is none): everything above it is a scope. *)
  let rec up n found =
    if n = anc then found
    else up (parent t n) (if is_nonscope t n then n else found)
  in
  let c = up n anc in
  if c = anc then invalid_arg "nonscope_child_ancestor: all-scope path";
  c

(** Paper Theorem 1: two distinct steps [s1] (left) and [s2] (right) can
    execute in parallel iff the non-scope child of their NS-LCA that is an
    ancestor of [s1] is an async node. *)
let may_happen_in_parallel t s1 s2 =
  if s1 = s2 then false
  else
    let left = min s1 s2 in
    let n = ns_lca t s1 s2 in
    if n = left then false
    else is_async t (nonscope_child_ancestor t ~anc:n left)

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
  tree : tree;
  mutable sink : t;  (** the sink of the current run, or [none] *)
  mutable path : int array;  (** depth -> the sink's ancestor there *)
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
let key t n = (4 * n) + shape t n

let lifter tree =
  {
    tree;
    sink = none;
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

let restart l = l.sink <- none

(* Grow every column to cover depth [d]. *)
let reserve l d =
  let len = Array.length l.memo_key in
  if d >= len then begin
    let cap = max (d + 1) (2 * len) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    l.path <- grow l.path none;
    l.ns_up <- grow l.ns_up 0;
    l.ns_down <- grow l.ns_down (-1);
    l.memo_key <- grow l.memo_key (-1);
    l.memo_lca <- grow l.memo_lca (-1);
    l.memo_best <- grow l.memo_best (-1)
  end

(* Start a run: record [sink]'s root path and forget the climbs. *)
let walk_sink l sink =
  let t = l.tree in
  l.sink <- sink;
  let d = depth t sink in
  reserve l d;
  let path = l.path in
  let rec walk n k =
    path.(k) <- n;
    if k > 0 then walk (parent t n) (k - 1)
  in
  walk sink d;
  let up = ref 0 in
  for k = 0 to d do
    if is_nonscope t path.(k) then up := k;
    l.ns_up.(k) <- !up
  done;
  (* the root is non-scope, so a depth is its own [ns_up] iff its node
     is non-scope *)
  let down = ref (-1) in
  for k = d downto 0 do
    l.ns_down.(k) <- !down;
    if l.ns_up.(k) = k then down := path.(k)
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
  let t = l.tree in
  if l.sink <> sink then walk_sink l sink;
  let top = depth t src in
  reserve l top;
  if top > l.memo_hi then l.memo_hi <- top;
  let path = l.path and keys = l.memo_key and path_len = depth t sink + 1 in
  (* climb from [src], recording each node in the memo, until the path
     or a node recorded by this run *)
  let n = ref src and stop = ref (-1) and d = ref top in
  while !stop < 0 do
    let v = !n and dv = !d in
    let k = key t v in
    if (dv < path_len && path.(dv) = v) || keys.(dv) = k then stop := dv
    else begin
      keys.(dv) <- k;
      if dv = 0 then invalid_arg "Lca.lift: source and sink in different trees";
      n := parent t v;
      d := dv - 1
    end
  done;
  let stop = !stop in
  let on_path = stop < path_len && path.(stop) = !n in
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
