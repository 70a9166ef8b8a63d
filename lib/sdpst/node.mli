(** Scoped Dynamic Program Structure Tree (S-DPST) — paper Definition 2.

    Leaves are {e step} instances; interior nodes are {e async},
    {e finish} and {e scope} instances.  Scope nodes (the extension over
    the plain DPST) record the lexical blocks entered during execution, so
    a newly introduced finish's start and end points stay within a single
    scope of the input program.

    A node {e is} its id: the tree keeps every field in a pointer-free
    arena of int rows indexed by id (DESIGN.md §3).  Nodes are created in
    depth-first execution order, so an id is also the depth-first
    preorder number (the numbers of the paper's Figure 9) and sibling
    order coincides with id order.  Mutability is part of the contract:
    the interpreter accretes children and step costs during the run,
    {!Tree.insert_finish} re-parents children, and {!Analysis.prune}
    collapses subtrees into summaries.  Every accessor raises
    [Invalid_argument] on an id that is not below [next_id]. *)

type scope_kind =
  | Sblock  (** entry into a lexical block (branch/loop body, nested block) *)
  | Scall of string  (** a function call's body *)

type kind =
  | Root  (** the implicit finish enclosing [main] *)
  | Async
  | Finish
  | Scope of scope_kind
  | Step

(** A node: its id in its tree. *)
type t = int

(** The arena.  [n_nodes] counts the live nodes: {!Analysis.prune} lowers
    it.  Ids come from a separate allocator, [next_id], which only grows,
    so every node ever created — {!Tree.insert_finish} splices included —
    has an id no other node of the tree had, and every id is below
    [next_id]: id-indexed tables sized by [next_id] cover the whole tree.
    The other fields are the arena's storage. *)
type tree = {
  mutable rows : int array array;  (** chunk directory of the node rows *)
  mutable n_nodes : int;  (** live nodes *)
  mutable next_id : int;  (** the id the next created node gets *)
  names : string Tdrutil.Vec.t;  (** call-scope function names *)
  name_ids : (string, int) Hashtbl.t;
  collapsed : (int, int * int) Hashtbl.t;
      (** [(span, drag)] summaries left by {!Analysis.prune} *)
}

(** The root's id, [0]; {!none} ([-1]) is the root's parent, a leaf's
    first child and a last child's next sibling. *)
val root : t
val none : t

(** {1 Fields}

    [sid] is the static stmt id that created the node (-1 for the root,
    steps and call scopes); [origin_bid] and [origin_idx] the block and
    index of that statement (a step's first one); [body_bid] the block
    its children execute (-1 for steps); a step's [cost] its execution
    time in cost units and [last_idx] the last statement it covered.
    The root has depth 0. *)

val parent : tree -> t -> t
val depth : tree -> t -> int
val sid : tree -> t -> int
val origin_bid : tree -> t -> int
val origin_idx : tree -> t -> int
val body_bid : tree -> t -> int
val cost : tree -> t -> int
val last_idx : tree -> t -> int

(** Allocates for a call scope: hot paths use the predicates below. *)
val kind : tree -> t -> kind

(** [(span, drag)] summary left by {!Analysis.prune}; [None] when live. *)
val collapsed : tree -> t -> (int * int) option

val is_scope : tree -> t -> bool
val is_step : tree -> t -> bool
val is_async : tree -> t -> bool

(** Non-scope in the paper's sense: async, finish, step, or the root. *)
val is_nonscope : tree -> t -> bool

(** Does the node's subtree hold an async or a finish, the node itself
    included?  One bit of the node's row, set when such a node is
    created under it ({!add_child}, {!place}, {!new_child}): the bit
    survives {!set_collapsed}, a {!Tree.insert_finish} splice and a
    {!Serial} round-trip. *)
val spawns : tree -> t -> bool

(** [spawn_free_top tree n] is the outermost scope ancestor [s] of [n]
    such that no node on the path from [n]'s parent up to [s] is
    collapsed, spawns, or is not a scope; {!none} when [n]'s parent is
    not such a scope.  No finish boundary can fall strictly inside [s]:
    a finish contains an async and starts and ends in one scope.  Reads
    one row per ancestor climbed. *)
val spawn_free_top : tree -> t -> t

(** Both tests of an ancestor walk in one read: [1] for a non-scope
    node, [3] for an async (a non-scope node too), [0] for a scope. *)
val shape : tree -> t -> int

(** {1 Children} *)

val first_child : tree -> t -> t
val next_sibling : tree -> t -> t

(** The sibling left of a node, or {!none}. *)
val prev_sibling : tree -> t -> t

(** Left to right; [f] may collapse the child it is given. *)
val iter_children : tree -> (t -> unit) -> t -> unit

val fold_children : tree -> ('acc -> t -> 'acc) -> 'acc -> t -> 'acc
val exists_child : tree -> (t -> bool) -> t -> bool
val n_children : tree -> t -> int

(** Index of a child among its parent's children.
    @raise Invalid_argument if it is not a child of that parent. *)
val child_index : tree -> t -> t -> int

(** Pre-order iteration over the tree. *)
val iter_tree : (t -> unit) -> tree -> unit

(** (asyncs, finishes incl. root, scopes, steps) — the Table 2 "S-DPST
    nodes" breakdown. *)
val count_by_kind : tree -> int * int * int * int

val kind_name : kind -> string

(** [kind:id]. *)
val pp : tree -> t Fmt.t

(** {1 Building} *)

(** Fresh tree containing only the root node; [main_bid] is the block id
    of [main]'s body, whose statements execute directly under the root. *)
val create_tree : main_bid:int -> tree

(** A kind packed for {!add_child}; a call scope's name is interned in
    the tree. *)
val code : tree -> kind -> int

(** The interpreter's node constructor: appends a node of kind [code]
    after [prev], the current last child of [parent] ({!none} when it
    has none), and returns its id.  Children must be added in
    left-to-right (depth-first execution) order; nothing is checked. *)
val add_child :
  tree ->
  parent:t ->
  prev:t ->
  code:int ->
  sid:int ->
  origin_bid:int ->
  origin_idx:int ->
  body_bid:int ->
  t

(** Append a fresh child under [parent] after its last child; [-1]
    defaults for the static back-references.
    @raise Invalid_argument on a back-reference below -1 or above 31
      bits. *)
val new_child :
  tree ->
  parent:t ->
  kind:kind ->
  ?sid:int ->
  ?origin_bid:int ->
  ?origin_idx:int ->
  ?body_bid:int ->
  unit ->
  t

(** [charge tree step n ~idx] adds [n] to a step's cost and raises its
    [last_idx] to [idx]. *)
val charge : tree -> t -> int -> idx:int -> unit

(** {1 Editing}

    For {!Tree}, {!Analysis} and {!Serial}: a caller keeps the tree
    well formed. *)

(** [place tree id ~parent ~prev ~kind ...] writes node [id], which no
    node of the tree had, as the child after [prev] under [parent], with
    explicit cost and last statement, and counts it live.  Ids may be
    placed in any order: a tree read back from a dump ({!Serial}) keeps
    its ids.
    @raise Invalid_argument as {!new_child}, on the root's id or a taken
      one, or on a parent not in the tree *)
val place :
  tree ->
  t ->
  parent:t ->
  prev:t ->
  kind:kind ->
  sid:int ->
  origin_bid:int ->
  origin_idx:int ->
  body_bid:int ->
  cost:int ->
  last_idx:int ->
  unit

val set_parent : tree -> t -> t -> unit
val set_depth : tree -> t -> int -> unit
val set_first_child : tree -> t -> t -> unit
val set_next_sibling : tree -> t -> t -> unit

(** Record a summary and drop the node's children. *)
val set_collapsed : tree -> t -> int * int -> unit
