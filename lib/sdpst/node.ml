(** Scoped Dynamic Program Structure Tree (S-DPST) — paper Definition 2.

    The S-DPST for an execution is an ordered rooted tree whose leaves are
    {e step} instances and whose interior nodes are {e async}, {e finish}
    and {e scope} instances.  Scope nodes (the extension over the plain
    DPST of Raman et al.) record the lexical blocks entered during
    execution, so that the start and end points of a newly introduced
    finish statement can be kept within a single scope of the input
    program.

    Construction happens during the sequential depth-first execution, so a
    node's [id] (creation order) is also its depth-first preorder number —
    the number shown on the nodes of the paper's Figure 9.  Sibling order
    (left to right) therefore coincides with [id] order.

    Static back-references: every node records the statement that created
    it ([sid]) and that statement's position ([origin_bid], [origin_idx]) —
    the block id and statement index the static finish-placement pass
    rewrites.  Step nodes additionally record the index of the last
    statement they cover ([last_idx]); async, finish and scope nodes record
    the block their own children belong to ([body_bid]). *)

type scope_kind =
  | Sblock  (** entry into a lexical block (branch/loop body, nested block) *)
  | Scall of string  (** a function call's body *)

type kind =
  | Root  (** the implicit finish enclosing [main] *)
  | Async
  | Finish
  | Scope of scope_kind
  | Step

type t = {
  id : int;
  kind : kind;
  mutable parent : t option;  (** [None] only for the root *)
  mutable depth : int;  (** root has depth 0 *)
  children : t Tdrutil.Vec.t;
  sid : int;  (** static stmt id that created this node; -1 for root/steps *)
  origin_bid : int;  (** block containing the creating statement *)
  origin_idx : int;  (** index of the creating (or first, for steps) stmt *)
  body_bid : int;  (** block executed by this node's children; -1 for steps *)
  mutable cost : int;  (** steps: accumulated execution time (cost units) *)
  mutable last_idx : int;  (** steps: index of the last statement covered *)
  mutable collapsed : (int * int) option;
      (** [(span, drag)] summary left by {!Analysis.prune} when a race-free
          subtree is garbage-collected; [None] for live nodes *)
}

type tree = {
  root : t;
  mutable n_nodes : int;  (** live nodes *)
  mutable next_id : int;  (** the id the next created node gets *)
}

let is_scope n = match n.kind with Scope _ -> true | _ -> false

let is_step n = n.kind = Step

let is_async n = n.kind = Async

(** Non-scope in the paper's sense: async, finish, step, or the root. *)
let is_nonscope n = not (is_scope n)

let kind_name = function
  | Root -> "root"
  | Async -> "async"
  | Finish -> "finish"
  | Scope Sblock -> "scope"
  | Scope (Scall f) -> "call:" ^ f
  | Step -> "step"

let pp_kind ppf k = Fmt.string ppf (kind_name k)

let pp ppf n = Fmt.pf ppf "%a:%d" pp_kind n.kind n.id

(** Fresh tree containing only the root node.  [main_bid] is the block id
    of the main function's body, whose statements execute directly under
    the root. *)
let create_tree ~main_bid =
  let root =
    {
      id = 0;
      kind = Root;
      parent = None;
      depth = 0;
      children = Tdrutil.Vec.create ();
      sid = -1;
      origin_bid = -1;
      origin_idx = -1;
      body_bid = main_bid;
      cost = 0;
      last_idx = -1;
      collapsed = None;
    }
  in
  { root; n_nodes = 1; next_id = 1 }

(* The children of every step {!add_child} creates: steps are leaves. *)
let leaf : t Tdrutil.Vec.t = Tdrutil.Vec.frozen ()

(** Append a fresh child under [parent] (passed boxed, so all children of
    one node can share its box).  Children must be added in left-to-right
    (depth-first execution) order.  Every field is passed explicitly and
    steps share one frozen empty child vector: the interpreter creates
    nodes by the million, and each allocation is promoted with the tree. *)
let add_child tree ~(parent : t option) ~kind ~sid ~origin_bid ~origin_idx
    ~body_bid =
  let p = match parent with Some p -> p | None -> invalid_arg "Node.add_child" in
  let n =
    {
      id = tree.next_id;
      kind;
      parent;
      depth = p.depth + 1;
      children = (match kind with Step -> leaf | _ -> Tdrutil.Vec.create ());
      sid;
      origin_bid;
      origin_idx;
      body_bid;
      cost = 0;
      last_idx = origin_idx;
      collapsed = None;
    }
  in
  tree.n_nodes <- tree.n_nodes + 1;
  tree.next_id <- tree.next_id + 1;
  Tdrutil.Vec.push p.children n;
  n

(** Append a fresh child under [parent]; [-1] defaults for the static
    back-references.  Children must be added in left-to-right order.
    Every node gets its own child vector, steps included: trees read
    back from dumps ({!Serial}) may be malformed. *)
let new_child tree ~parent ~kind ?(sid = -1) ?(origin_bid = -1)
    ?(origin_idx = -1) ?(body_bid = -1) () =
  let n =
    {
      id = tree.next_id;
      kind;
      parent = Some parent;
      depth = parent.depth + 1;
      children = Tdrutil.Vec.create ();
      sid;
      origin_bid;
      origin_idx;
      body_bid;
      cost = 0;
      last_idx = origin_idx;
      collapsed = None;
    }
  in
  tree.n_nodes <- tree.n_nodes + 1;
  tree.next_id <- tree.next_id + 1;
  Tdrutil.Vec.push parent.children n;
  n

(** Index of [child] among [parent]'s children.
    @raise Invalid_argument if [child] is not a child of [parent]. *)
let child_index parent child =
  match
    Tdrutil.Vec.find_index (fun c -> c.id = child.id) parent.children
  with
  | Some i -> i
  | None ->
      invalid_arg
        (Fmt.str "Node.child_index: %a is not a child of %a" pp child pp
           parent)

(** Pre-order iteration over the subtree rooted at [n]. *)
let rec iter_subtree f n =
  f n;
  Tdrutil.Vec.iter (iter_subtree f) n.children

let iter_tree f tree = iter_subtree f tree.root

(** Number of nodes per kind, for the Table 2 "S-DPST nodes" column. *)
let count_by_kind tree =
  let asyncs = ref 0 and finishes = ref 0 and scopes = ref 0 and steps = ref 0 in
  iter_tree
    (fun n ->
      match n.kind with
      | Async -> incr asyncs
      | Finish | Root -> incr finishes
      | Scope _ -> incr scopes
      | Step -> incr steps)
    tree;
  (!asyncs, !finishes, !scopes, !steps)
