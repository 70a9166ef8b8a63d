(** Abstract addresses of monitored shared-memory locations: globals and
    array cells — the only shared mutable state Mini-HJ's type system
    admits. *)

type t =
  | Global of string  (** a top-level [var] *)
  | Cell of int * int  (** (array id, index) *)

val equal : t -> t -> bool

val hash : t -> int

val pp : t Fmt.t

module Table : Hashtbl.S with type key = t

(** Dense integer interning of addresses.

    The detection hot path must not hash a boxed {!t} per monitored
    access, so the interpreter resolves every address to a dense [int]:
    globals get ids [0 .. n_globals) in declaration order, interned once
    at program load; each array allocation reserves a contiguous block of
    ids, one per cell, so a cell access is a single add ([base + index]).
    The id space is contiguous — shadow memory becomes a flat growable
    table indexed by id instead of an [Addr.Table]. *)
module Intern : sig
  type addr = t

  type t

  val create : unit -> t

  (** Intern a global (once per name, in declaration order, before any
      array registration); returns its id. *)
  val add_global : t -> string -> int

  (** Reserve [len] contiguous ids for the cells of array [aid].  Arrays
      must register in allocation order (dense, increasing [aid]).
      @raise Invalid_argument on an out-of-order [aid] *)
  val register_array : t -> aid:int -> len:int -> unit

  (** Interned id of cell [idx] of a registered array. *)
  val cell_id : t -> aid:int -> idx:int -> int

  (** Exclusive upper bound on every id handed out so far — for sizing
      flat shadow tables. *)
  val n_ids : t -> int

  val n_globals : t -> int

  (** Reconstruct the boxed address of an interned id: O(1) for globals,
      O(log n_arrays) for cells.
      @raise Invalid_argument for an id never handed out *)
  val of_id : t -> int -> addr
end
