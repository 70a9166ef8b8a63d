(** Timing analysis over the S-DPST under the ideal (unbounded-processor)
    execution model of the paper's Definition 1.

    Every node has a {e span} (time from its start until all work in its
    subtree completes) and a {e drag} (time until control passes it): 0
    for an async, the span for a finish, the cost for a step, the
    sequential composition of its children for a scope.  These are the
    [t_i] weights and [EST] base cases of Algorithm 1. *)

(** Span/drag evaluator over one tree: two columns indexed by node id,
    filled on demand.  Ids are unique per tree ({!Node.tree}), so the columns grow
    to at most its [next_id]. *)
type memo

val memo : Node.tree -> memo

(** [span m n] evaluates [n]'s subtree into [m] as far as not yet done. *)
val span : memo -> Node.t -> int

val drag : memo -> Node.t -> int

(** [forget_path m n] drops the entries of [n] and its ancestors: after
    {!Tree.insert_finish} spliced a finish under [n], every other entry
    still holds. *)
val forget_path : memo -> Node.t -> unit

(** Critical path length of the whole execution (Definition 1). *)
val critical_path_length : Node.tree -> int

(** Total work: sum of all step costs (serial-elision execution time). *)
val work : Node.tree -> int

(** [span] and [drag] over one fresh {!memo}, for repeated queries
    against an unchanging tree. *)
val span_memo : Node.tree -> (Node.t -> int) * (Node.t -> int)

(** [prune tree ~keep] collapses every subtree containing no node for
    which [keep] holds into a [(span, drag)] summary — the paper's §9
    proposed garbage-collection of race-free S-DPST regions.  Timing
    queries are preserved; returns the number of nodes removed. *)
val prune : Node.tree -> keep:(Node.t -> bool) -> int
