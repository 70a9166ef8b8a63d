(** Dense, lazily-grown vector clocks over task indices (DESIGN.md §14).

    Not thread-safe: each clock is owned by a single task. *)

type t

val create : unit -> t

(** Slots physically allocated; [get] beyond this returns 0. *)
val length : t -> int

(** Epoch known for task index [i] (0 = no knowledge). *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Increment slot [i] (creating it at 1 if absent). *)
val incr : t -> int -> unit

val copy : t -> t

(** Pointwise max of the second clock into [into]. *)
val merge : into:t -> t -> unit

(** The backing array: slot [i] is [get c i] below its length, and
    every slot past it reads 0.  For the detector's batched scan loops;
    invalidated by any growth ([set], [incr], [merge]). *)
val data : t -> int array

(** [covers c i e]: is epoch [e] of task [i] ordered before the holder
    of [c] (that is, [get c i >= e])? *)
val covers : t -> int -> int -> bool
