(** Ancestor queries on the S-DPST: LCA, NS-LCA (paper Definitions 3-5)
    and the may-happen-in-parallel test (paper Theorem 1). *)

(** [is_ancestor a n] — is [a] an ancestor of [n] (reflexively)? *)
val is_ancestor : Node.tree -> Node.t -> Node.t -> bool

(** Least common ancestor. *)
val lca : Node.tree -> Node.t -> Node.t -> Node.t

(** Non-scope least common ancestor (Definition 4): the first non-scope
    node on the path from the LCA to the root. *)
val ns_lca : Node.tree -> Node.t -> Node.t -> Node.t

(** [nonscope_child_ancestor ~anc n] — the non-scope child of [anc]
    (Definition 3) whose subtree contains [n].
    @raise Invalid_argument if [n] is not a strict descendant of [anc]. *)
val nonscope_child_ancestor : Node.tree -> anc:Node.t -> Node.t -> Node.t

(** Paper Theorem 1: two distinct steps can execute in parallel iff the
    non-scope child of their NS-LCA that is an ancestor of the left one is
    an async node. *)
val may_happen_in_parallel : Node.tree -> Node.t -> Node.t -> bool

(** {1 Lifting race pairs}

    Scratch state for lifting many (source, sink) step pairs onto their
    NS-LCA and its two non-scope children with one ancestor walk per
    sink: the sink's root path is recorded in arrays indexed by depth,
    and each source climbs until it meets that path or a node an earlier
    source of the same sink climbed through.  The arrays grow on demand
    to the deepest node lifted. *)
type lifter

(** A lifter over one tree. *)
val lifter : Node.tree -> lifter

(** Forget the recorded path and climbs.  Call it after the tree
    changes (e.g. {!Tree.insert_finish}) before lifting again. *)
val restart : lifter -> unit

(** [lift l ~src ~sink] is [ns_lca src sink], and sets {!src_child} and
    {!sink_child} to the ids of [nonscope_child_ancestor ~anc:(ns_lca src
    sink)] of [src] and of [sink].  Consecutive calls with the same sink
    share its root-path walk.
    @raise Invalid_argument if one endpoint is an ancestor of the other
      or they are not in one tree. *)
val lift : lifter -> src:Node.t -> sink:Node.t -> Node.t

(** Id of the source's non-scope child of the last {!lift}'s NS-LCA. *)
val src_child : lifter -> int

(** Is the source's child an async?  When the source precedes the sink,
    as a race's does, this is Theorem 1's answer: may they run in
    parallel? *)
val src_child_is_async : lifter -> bool

(** Id of the sink's non-scope child of the last {!lift}'s NS-LCA. *)
val sink_child : lifter -> int
