(** Growable arrays (amortized O(1) push); the small [Dynarray] subset the
    S-DPST and detectors need on OCaml 5.1. *)

type 'a t

(** [create ?capacity ()] is an empty vector; [capacity] hints the size of
    the first backing allocation (applied on the first push, which supplies
    the filler element). *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

(** @raise Invalid_argument out of bounds *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument out of bounds *)
val set : 'a t -> int -> 'a -> unit

(** Unchecked access — the caller must guarantee [0 <= i < length]. *)
val unsafe_get : 'a t -> int -> 'a

val unsafe_set : 'a t -> int -> 'a -> unit

val last : 'a t -> 'a option

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val exists : ('a -> bool) -> 'a t -> bool

val find_index : ('a -> bool) -> 'a t -> int option

(** [ensure t n ~fill] grows [t] to length at least [n], filling new
    slots with [fill]; no-op if already long enough. *)
val ensure : 'a t -> int -> fill:'a -> unit

val clear : 'a t -> unit

(** [swap_remove t i] removes and returns element [i], moving the last
    element into its slot (O(1); order is not preserved).
    @raise Invalid_argument out of bounds *)
val swap_remove : 'a t -> int -> 'a
