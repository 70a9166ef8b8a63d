(** Sparse slab-allocated tables of boxed elements — {!Islab} for ['a]
    slots, with the same chunk sizes.  Used for the MRW detectors'
    access lists: one int array per touched list, where chunked
    growth keeps footprint proportional to touched chunks and avoids a
    doubling copy (which for a boxed table would also re-run the GC write
    barrier per moved slot). *)

type 'a t

(** [create ?chunk ~fill ()] is an empty table; every slot reads as
    [fill] until written (use a shared sentinel value).
    @raise Invalid_argument as {!Islab.create} *)
val create : ?chunk:int -> fill:'a -> unit -> 'a t

(** Chunks allocated so far. *)
val n_chunks : 'a t -> int

(** Allocated backing words (slots plus directory), excluding the boxed
    elements themselves. *)
val words : 'a t -> int

(** @raise Invalid_argument on a negative index *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument on a negative index *)
val set : 'a t -> int -> 'a -> unit

(** Apply to every slot of every materialized chunk in index order
    (absent chunks are skipped; present chunks include their [fill]
    padding). *)
val iter_present : ('a -> unit) -> 'a t -> unit
