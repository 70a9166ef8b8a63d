(** Textual rendering of an S-DPST (the paper's Figure 9 style). *)

val to_string : Node.tree -> string

(** One-line structural summary — kinds in preorder with bracketed
    children, e.g. [root(step async(step) step)] — for exact structural
    assertions in tests. *)
val skeleton : Node.tree -> string

exception Parse_error of string * int
(** message, 1-based line number *)

(** Serialize the whole tree (preorder, one node per line), suitable for a
    fully offline detector-to-analyzer hand-off. *)
val tree_to_string : Node.tree -> string

(** Rebuild a tree serialized by {!tree_to_string}.
    @raise Parse_error on malformed input. *)
val tree_of_string : string -> Node.tree
