(** Deterministic pseudo-random numbers (SplitMix64) for reproducible
    workload and submission generators. *)

type t

val create : seed:int -> t

(** Uniform int in [0, bound). @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

val bool : t -> bool

(** Uniform element of a non-empty list.
    @raise Invalid_argument on the empty list. *)
val choose : t -> 'a list -> 'a
