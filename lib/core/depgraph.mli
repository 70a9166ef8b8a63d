(** Dependence graphs over NS-LCA subtrees (paper §5.1).

    For each unique non-scope least common ancestor [L] of a set of data
    races, the subtree rooted at [L] is reduced to a DAG whose vertices are
    the non-scope children of [L] (left to right) and whose edges are the
    races lifted to the children containing their endpoints.  Runs of
    non-async children that cannot host a useful finish boundary are
    coalesced into super-vertices (see {!of_pairs}). *)

type t = private {
  tree : Sdpst.Node.tree;
  lca : Sdpst.Node.t;  (** the NS-LCA this graph was built from *)
  first : Sdpst.Node.t array;  (** leftmost S-DPST child of each vertex *)
  last : Sdpst.Node.t array;  (** rightmost S-DPST child of each vertex *)
  times : int array;  (** [t_i]: sequential composition of the run's spans *)
  drags : int array;
      (** delay until the next vertex may start: 0 for an async, the span
          for steps and finishes, the summarized drag for a collapsed
          scope (< span when it contains asyncs that outlive it) *)
  is_async : bool array;  (** singleton async vertex? *)
  edges : (int * int) list;  (** deduplicated, 0-based, left-to-right *)
  cum : int array array;  (** 2-D prefix sums for O(1) crossing tests *)
  n_raw : int;  (** non-scope children before coalescing *)
}

val n_vertices : t -> int

val n_edges : t -> int

(** Non-scope children of a node (paper Definition 3), left to right:
    descendants reached through scope nodes only. *)
val nonscope_children : Sdpst.Node.tree -> Sdpst.Node.t -> Sdpst.Node.t list

(** [are_crossing g ~i ~k ~j] — the paper's [succ(i..k) ∩ {k+1..j} ≠ ∅]
    test: does some edge go from a vertex in [i..k] to one in [k+1..j]?
    O(1). *)
val are_crossing : t -> i:int -> k:int -> j:int -> bool

(** The distinct step pairs of one NS-LCA group, lifted onto it: the
    group's pair indices [pairs], in report order, and for each index
    [k] the ids [src_child.(k)] and [sink_child.(k)] of the non-scope
    children of [nslca] that contain its source and its sink (see
    {!Sdpst.Lca.lift}).  The two columns are indexed by pair, so the
    groups of one pair set can share them. *)
type lifted = {
  tree : Sdpst.Node.tree;
  nslca : Sdpst.Node.t;
  pairs : Tdrutil.Ivec.t;
  src_child : Tdrutil.Ivec.t;
  sink_child : Tdrutil.Ivec.t;
}

(** Build the dependence graph of one lifted NS-LCA group.  [span]
    supplies subtree completion times (usually
    {!Sdpst.Analysis.span_memo}).

    Sink ids never decrease in report order and node ids are depth-first
    preorder among steps, so sink vertices never decrease either and raw
    edges dedupe with a per-source stamp; that order is checked on every
    edge.

    @param coalesce merge signature-identical and pure-sink runs of
      non-async children (default [true]; [false] gives the paper's exact
      one-vertex-per-child construction).
    @raise Invalid_argument if a lifted child is not a non-scope child of
      [nslca], an edge is not left-to-right, or sink vertices decrease. *)
val of_pairs : ?coalesce:bool -> span:(Sdpst.Node.t -> int) -> lifted -> t

val pp : t Fmt.t
