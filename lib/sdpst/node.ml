(* See node.mli.  Construction order is depth-first execution order,
   so an id is the node's preorder number (the numbers of the paper's
   Figure 9) until a splice or a prune edits the tree. *)

type scope_kind = Sblock | Scall of string

type kind = Root | Async | Finish | Scope of scope_kind | Step

type t = int

(* The arena: one row of 8 ints per node id, in chunks of
   [1 lsl chunk_bits] ints allocated on demand (straight into the major
   heap, and never copied: only the chunk directory grows by doubling).
   Every id below [next_id] has its chunk.  A row holds

   - [f_up]: [(parent + 1) lsl 32 lor depth];
   - [f_meta]: [spawns lsl 55 lor (sid + 1) lsl 24 lor name lsl 4 lor
     collapsed lsl 3 lor tag], where [name] (20 bits) indexes [names]
     for a call scope, [sid + 1] takes 31 bits, and [spawns] is set when
     the node's subtree holds an async or a finish, the node itself
     included.  Bits 56-62 are free: every field read masks its own
     bits, so a bit set there changes no field;
   - [f_origin]: [(origin_bid + 1) lsl 32 lor (origin_idx + 1)];
   - [f_body], [f_cost], [f_last]: body block, cost, last statement;
   - [f_first], [f_next]: first child and next sibling, -1 for none.

   Packing bounds ids, block ids and statement indices to 31 bits, the
   bound the detectors' packed race records already put on step ids. *)
type tree = {
  mutable rows : int array array;
  mutable n_nodes : int;
  mutable next_id : int;
  names : string Tdrutil.Vec.t;
  name_ids : (string, int) Hashtbl.t;
  collapsed : (int, int * int) Hashtbl.t;
}

let root = 0
let none = -1

let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let f_up, f_meta, f_origin, f_body, f_cost, f_last, f_first, f_next =
  (0, 1, 2, 3, 4, 5, 6, 7)

let low32 = (1 lsl 32) - 1
let max_field = (1 lsl 31) - 1

let tag_root, tag_async, tag_finish, tag_block, tag_call, tag_step =
  (0, 1, 2, 3, 4, 5)

let collapsed_bit = 8
let spawns_bit = 1 lsl 55

let uget t n f =
  let i = (n lsl 3) lor f in
  Array.unsafe_get (Array.unsafe_get t.rows (i lsr chunk_bits)) (i land chunk_mask)

let uset t n f v =
  let i = (n lsl 3) lor f in
  Array.unsafe_set (Array.unsafe_get t.rows (i lsr chunk_bits)) (i land chunk_mask) v

let check t n =
  if n < 0 || n >= t.next_id then
    invalid_arg (Printf.sprintf "Sdpst.Node: no node %d" n)

let get t n f = check t n; uget t n f
let set t n f v = check t n; uset t n f v

(* Make ids up to [n] valid: materialize their chunks. *)
let reserve t n =
  if n > max_field then invalid_arg "Sdpst.Node: node id exceeds 31 bits";
  let hi = (n lsl 3) lsr chunk_bits in
  let len = Array.length t.rows in
  if hi >= len then begin
    let dir = Array.make (max (hi + 1) (2 * len)) [||] in
    Array.blit t.rows 0 dir 0 len;
    t.rows <- dir
  end;
  for ci = (t.next_id lsl 3) lsr chunk_bits to hi do
    if Array.length t.rows.(ci) = 0 then
      t.rows.(ci) <- Array.make (1 lsl chunk_bits) 0
  done;
  if n >= t.next_id then t.next_id <- n + 1

let parent t n = (get t n f_up lsr 32) - 1
let depth t n = get t n f_up land low32
let tag t n = get t n f_meta land 7
let sid t n = ((get t n f_meta lsr 24) land max_field) - 1
let origin_bid t n = (get t n f_origin lsr 32) - 1
let origin_idx t n = (get t n f_origin land low32) - 1
let body_bid t n = get t n f_body
let cost t n = get t n f_cost
let last_idx t n = get t n f_last
let first_child t n = get t n f_first
let next_sibling t n = get t n f_next

let kind t n =
  let m = get t n f_meta in
  match m land 7 with
  | 0 -> Root
  | 1 -> Async
  | 2 -> Finish
  | 3 -> Scope Sblock
  | 4 -> Scope (Scall (Tdrutil.Vec.get t.names ((m lsr 4) land 0xFFFFF)))
  | _ -> Step

let collapsed t n =
  if get t n f_meta land collapsed_bit = 0 then None
  else Hashtbl.find_opt t.collapsed n

let spawns t n = get t n f_meta land spawns_bit <> 0

let shape t n =
  let g = tag t n in
  if g = tag_async then 3 else if g = tag_block || g = tag_call then 0 else 1

let is_scope t n = shape t n = 0
let is_nonscope t n = shape t n <> 0
let is_step t n = tag t n = tag_step
let is_async t n = tag t n = tag_async

let iter_children t f n =
  let c = ref (first_child t n) in
  while !c >= 0 do
    let x = !c in
    c := next_sibling t x;
    f x
  done

let fold_children t f acc n =
  let acc = ref acc in
  iter_children t (fun c -> acc := f !acc c) n;
  !acc

let exists_child t p n =
  let rec go c = c >= 0 && (p c || go (next_sibling t c)) in
  go (first_child t n)

let n_children t n = fold_children t (fun k _ -> k + 1) 0 n

let kind_name = function
  | Root -> "root"
  | Async -> "async"
  | Finish -> "finish"
  | Scope Sblock -> "scope"
  | Scope (Scall f) -> "call:" ^ f
  | Step -> "step"

let pp t ppf n = Fmt.pf ppf "%s:%d" (kind_name (kind t n)) n

let child_index t parent child =
  let rec go c i =
    if c < 0 then
      invalid_arg
        (Fmt.str "Node.child_index: %a is not a child of %a" (pp t) child
           (pp t) parent)
    else if c = child then i
    else go (next_sibling t c) (i + 1)
  in
  go (first_child t parent) 0

let prev_sibling t n =
  let rec go prev c = if c < 0 || c = n then prev else go c (next_sibling t c) in
  let p = parent t n in
  if p < 0 then none else go none (first_child t p)

let rec iter_subtree t f n =
  f n;
  iter_children t (iter_subtree t f) n

let iter_tree f t = iter_subtree t f root

let count_by_kind t =
  let asyncs = ref 0 and finishes = ref 0 and scopes = ref 0 and steps = ref 0 in
  iter_tree
    (fun n ->
      let g = tag t n in
      if g = tag_async then incr asyncs
      else if g = tag_step then incr steps
      else if g = tag_block || g = tag_call then incr scopes
      else incr finishes)
    t;
  (!asyncs, !finishes, !scopes, !steps)

let code t = function
  | Root -> tag_root
  | Async -> tag_async
  | Finish -> tag_finish
  | Scope Sblock -> tag_block
  | Step -> tag_step
  | Scope (Scall f) ->
      let i =
        match Hashtbl.find_opt t.name_ids f with
        | Some i -> i
        | None ->
            let i = Tdrutil.Vec.length t.names in
            if i > 0xFFFFF then invalid_arg "Sdpst.Node: too many call names";
            Tdrutil.Vec.push t.names f;
            Hashtbl.replace t.name_ids f i;
            i
      in
      (i lsl 4) lor tag_call

(* Write node [n]'s row and link it after [prev]: [n], [parent] and
   [prev] (when not [none]) are ids below [next_id]. *)
let write t n ~parent ~prev ~code ~sid ~origin_bid ~origin_idx ~body_bid
    ~cost ~last_idx =
  let i = n lsl 3 in
  let row = Array.unsafe_get t.rows (i lsr chunk_bits)
  and o = i land chunk_mask in
  let d = if parent < 0 then 0 else (uget t parent f_up land low32) + 1 in
  let tag = code land 7 in
  let spawns = tag = tag_async || tag = tag_finish in
  Array.unsafe_set row o (((parent + 1) lsl 32) lor d);
  Array.unsafe_set row (o + f_meta)
    (((sid + 1) lsl 24) lor code lor if spawns then spawns_bit else 0);
  Array.unsafe_set row (o + f_origin)
    (((origin_bid + 1) lsl 32) lor (origin_idx + 1));
  Array.unsafe_set row (o + f_body) body_bid;
  Array.unsafe_set row (o + f_cost) cost;
  Array.unsafe_set row (o + f_last) last_idx;
  Array.unsafe_set row (o + f_first) none;
  Array.unsafe_set row (o + f_next) none;
  if prev >= 0 then uset t prev f_next n
  else if parent >= 0 then uset t parent f_first n;
  (* mark the ancestors up to the first marked one, which has its own
     ancestors marked: each node is marked once *)
  if spawns then begin
    let p = ref parent in
    while !p >= 0 && uget t !p f_meta land spawns_bit = 0 do
      uset t !p f_meta (uget t !p f_meta lor spawns_bit);
      p := (uget t !p f_up lsr 32) - 1
    done
  end;
  t.n_nodes <- t.n_nodes + 1

let create_tree ~main_bid =
  let t =
    { rows = [||]; n_nodes = 0; next_id = 0; names = Tdrutil.Vec.create ();
      name_ids = Hashtbl.create 8; collapsed = Hashtbl.create 1 }
  in
  reserve t root;
  write t root ~parent:none ~prev:none ~code:tag_root ~sid:(-1)
    ~origin_bid:(-1) ~origin_idx:(-1) ~body_bid:main_bid ~cost:0
    ~last_idx:(-1);
  t

(* The interpreter's: a row written in place, a chunk allocated once per
   128 nodes. *)
let add_child t ~parent ~prev ~code ~sid ~origin_bid ~origin_idx ~body_bid =
  let n = t.next_id in
  if n land ((1 lsl (chunk_bits - 3)) - 1) = 0 then reserve t n
  else t.next_id <- n + 1;
  write t n ~parent ~prev ~code ~sid ~origin_bid ~origin_idx ~body_bid
    ~cost:0 ~last_idx:origin_idx;
  n

(* A row never written reads as 0 in [f_up], which only the root's
   (parent -1, depth 0) also does. *)
let place t n ~parent ~prev ~kind ~sid ~origin_bid ~origin_idx ~body_bid ~cost
    ~last_idx =
  check t parent;
  List.iter
    (fun (what, v) ->
      if v < -1 || v >= max_field then
        invalid_arg (Printf.sprintf "Sdpst.Node: %s %d out of range" what v))
    [ ("sid", sid); ("origin_bid", origin_bid); ("origin_idx", origin_idx) ];
  if n < 1 then invalid_arg "Sdpst.Node.place: the root is placed";
  reserve t n;
  if get t n f_up <> 0 then
    invalid_arg (Printf.sprintf "Sdpst.Node.place: id %d is taken" n);
  write t n ~parent ~prev ~code:(code t kind) ~sid ~origin_bid ~origin_idx
    ~body_bid ~cost ~last_idx

let new_child t ~parent ~kind ?(sid = -1) ?(origin_bid = -1)
    ?(origin_idx = -1) ?(body_bid = -1) () =
  let n = t.next_id in
  let prev = fold_children t (fun _ c -> c) none parent in
  place t n ~parent ~prev ~kind ~sid ~origin_bid
    ~origin_idx ~body_bid ~cost:0 ~last_idx:origin_idx;
  n

let charge t n c ~idx =
  set t n f_cost (get t n f_cost + c);
  if idx > get t n f_last then set t n f_last idx

let set_parent t n p = set t n f_up (((p + 1) lsl 32) lor depth t n)
let set_depth t n d = set t n f_up (get t n f_up land lnot low32 lor d)
let set_first_child t n c = set t n f_first c
let set_next_sibling t n c = set t n f_next c

(* A node's ancestors are nodes of the tree: one check covers the climb. *)
let spawn_free_top t n =
  let rec climb top p =
    if p < 0 then top
    else
      let m = uget t p f_meta in
      let g = m land 7 in
      if (g = tag_block || g = tag_call)
         && m land (spawns_bit lor collapsed_bit) = 0
      then climb p ((uget t p f_up lsr 32) - 1)
      else top
  in
  climb none (parent t n)

let set_collapsed t n summary =
  set t n f_meta (get t n f_meta lor collapsed_bit);
  set t n f_first none;
  Hashtbl.replace t.collapsed n summary
