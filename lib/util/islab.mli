(** Sparse tables of unboxed [int]s growing in fixed-size slabs.

    The detectors' shadow memory is indexed by dense interned address
    ids, but at scale the id space is large (one id per array cell) and
    access is skewed, so a dense doubling array ({!Ivec.ensure}) would
    pay for every id below the highest one touched — plus a transient 2x
    copy at each doubling.  A slab table allocates fixed-size
    power-of-two chunks on first write, so footprint tracks the set of
    {e touched} chunks, never the id-space bound, and growth never
    copies.  Reads of untouched slots return the table's [fill] without
    allocating. *)

(** Default slab size in slots (power of two): 32 KiB of [int]s, so an
    MRW detection's first header chunk and first list chunk together
    take 64 KiB. *)
val default_chunk : int

(** Largest accepted slab size in slots, [2^20] (8 MiB of [int]s). *)
val max_chunk : int

(** [bits_for n] is log2 of the slots per chunk for a requested size of
    [n]: [n] rounded up to a power of two, at least 8.
    @raise Invalid_argument unless [0 < n <= max_chunk] *)
val bits_for : int -> int

type t

(** [create ?chunk ~fill ()] is an empty table of [chunk]-slot slabs
    (default {!default_chunk}, rounded as by {!bits_for}); every slot
    reads as [fill] until written.
    @raise Invalid_argument unless [0 < chunk <= max_chunk] *)
val create : ?chunk:int -> fill:int -> unit -> t

(** Slots per chunk. *)
val chunk_slots : t -> int

(** Chunks allocated so far — the [detector.shadow_slabs] gauge. *)
val n_chunks : t -> int

(** Allocated backing words (chunks plus directory), for footprint
    accounting. *)
val words : t -> int

(** @raise Invalid_argument on a negative index *)
val get : t -> int -> int

(** @raise Invalid_argument on a negative index *)
val set : t -> int -> int -> unit

(** [chunk t i] is the backing chunk of slot [i], materialized, so the
    caller can read {e and} write it in place; the slot sits at offset
    [i land (Array.length c - 1)] of chunk [c] (chunks are powers of two
    long).  For struct-of-arrays shadow rows packed at a fixed stride: a
    row of a power-of-two stride no larger than 8, aligned to it, never
    straddles a chunk, so one directory probe serves the whole row, and
    returning the bare chunk keeps the probe free of allocation.
    @raise Invalid_argument on a negative index *)
val chunk : t -> int -> int array
