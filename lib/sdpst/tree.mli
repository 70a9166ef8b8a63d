(** Structural updates and queries on a built S-DPST. *)

(** [insert_finish tree ~parent ~lo ~hi] splices a new finish node over
    children [lo..hi] (inclusive) of [parent] — the paper's §6.1 step (d)
    S-DPST update.  Returns the new node; depths below it are renumbered.
    @raise Invalid_argument on an out-of-range range. *)
val insert_finish : Node.tree -> parent:Node.t -> lo:int -> hi:int -> Node.t

(** All steps, in depth-first (program) order. *)
val steps : Node.tree -> Node.t list
