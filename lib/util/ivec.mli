(** Growable vectors of unboxed [int]s.

    The detection hot path (shadow memory, union-find bags, access lists)
    stores all of its per-access state in these: a flat [int array] backing
    with amortized O(1) push and no per-element boxing, unlike [('a, int)
    Hashtbl.t] or [int option] fields.  [ensure] supports the
    grow-on-demand tables indexed by dense ids (interned addresses, S-DPST
    node ids). *)

type t

(** [create ?capacity ()] is an empty vector; [capacity] pre-sizes the
    backing array so the first pushes don't reallocate. *)
val create : ?capacity:int -> unit -> t

(** [make ~len fill] is a vector of [len] copies of [fill]. *)
val make : len:int -> int -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> unit

(** [push2 t a b] pushes two ints with a single capacity check — for
    fixed-stride tuple buffers on hot paths. *)
val push2 : t -> int -> int -> unit

(** [append_slice t lo hi] appends the slice [lo, hi) of [t] to the end
    of [t] (a self-blit; the slice must lie within the current length). *)
val append_slice : t -> int -> int -> unit

(** @raise Invalid_argument out of bounds *)
val get : t -> int -> int

(** @raise Invalid_argument out of bounds *)
val set : t -> int -> int -> unit

(** Unchecked access — the caller must guarantee [0 <= i < length]. *)
val unsafe_get : t -> int -> int

(** The raw backing array (valid entries are [0 .. length - 1]; the rest
    is garbage).  Perf escape hatch for batched hot loops that would
    otherwise re-load the indirection every iteration; the array is
    {e invalidated} by any growth ([push]/[ensure]), so callers must not
    hold it across a push to the same vector. *)
val unsafe_data : t -> int array

val unsafe_set : t -> int -> int -> unit

(** [ensure t n ~fill] grows [t] to length at least [n], filling new slots
    with [fill].  No-op if already long enough. *)
val ensure : t -> int -> fill:int -> unit

(** Last element ([push]/[pop] use the vector as a stack).
    @raise Invalid_argument on an empty vector *)
val top : t -> int

(** Remove and return the last element.
    @raise Invalid_argument on an empty vector *)
val pop : t -> int

val iter : (int -> unit) -> t -> unit

val fold : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> int list

val of_list : int list -> t

val clear : t -> unit

(** Shrink the backing array to the live length, releasing capacity freed
    by [clear]/[pop] (invalidates any held [unsafe_data]). *)
val compact : t -> unit
