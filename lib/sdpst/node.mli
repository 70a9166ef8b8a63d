(** Scoped Dynamic Program Structure Tree (S-DPST) — paper Definition 2.

    Leaves are {e step} instances; interior nodes are {e async},
    {e finish} and {e scope} instances.  Scope nodes (the extension over
    the plain DPST) record the lexical blocks entered during execution, so
    a newly introduced finish's start and end points stay within a single
    scope of the input program.

    Nodes are created in depth-first execution order, so [id] is also the
    depth-first preorder number (the numbers of the paper's Figure 9) and
    sibling order coincides with [id] order.  Mutability is part of the
    contract: the interpreter accretes children and step costs during the
    run, {!Tree.insert_finish} re-parents children, and
    {!Analysis.prune} collapses subtrees into summaries. *)

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
      (** [(span, drag)] summary left by {!Analysis.prune}; [None] live *)
}

(** [n_nodes] counts the live nodes: {!Analysis.prune} lowers it.  Ids
    come from a separate allocator, [next_id], which only grows, so every
    node ever created — {!Tree.insert_finish} splices included — has an id
    no other node of the tree had, and every id is below [next_id]:
    id-indexed tables sized by [next_id] cover the whole tree. *)
type tree = {
  root : t;
  mutable n_nodes : int;  (** live nodes *)
  mutable next_id : int;  (** the id the next created node gets *)
}

val is_scope : t -> bool

val is_step : t -> bool

val is_async : t -> bool

(** Non-scope in the paper's sense: async, finish, step, or the root. *)
val is_nonscope : t -> bool

val kind_name : kind -> string

val pp_kind : kind Fmt.t

val pp : t Fmt.t

(** Fresh tree containing only the root node; [main_bid] is the block id
    of [main]'s body, whose statements execute directly under the root. *)
val create_tree : main_bid:int -> tree

(** The interpreter's node constructor: [parent] is passed boxed (so a
    node's children share one box), every field is explicit, and steps
    share one frozen empty child vector.  Children must be added in
    left-to-right (depth-first execution) order.
    @raise Invalid_argument when [parent] is [None] *)
val add_child :
  tree ->
  parent:t option ->
  kind:kind ->
  sid:int ->
  origin_bid:int ->
  origin_idx:int ->
  body_bid:int ->
  t

(** Append a fresh child under [parent]; children must be added in
    left-to-right (depth-first execution) order. *)
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

(** Index of a child among its parent's children.
    @raise Invalid_argument if it is not a child of that parent. *)
val child_index : t -> t -> int

(** Pre-order iteration over a subtree. *)
val iter_subtree : (t -> unit) -> t -> unit

val iter_tree : (t -> unit) -> tree -> unit

(** (asyncs, finishes incl. root, scopes, steps) — the Table 2 "S-DPST
    nodes" breakdown. *)
val count_by_kind : tree -> int * int * int * int
