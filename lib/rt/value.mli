(** Runtime values of the Mini-HJ interpreter. *)

type arr = { aid : int; cells : t array }
(** [aid] identifies the array object for race-detection addresses. *)

and t =
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VUnit
  | VArr of arr

val pp : t Fmt.t

(** [digest_globals gs] — canonical one-line-per-global rendering of a
    final global state, sorted by name; arrays print their cells
    recursively, without [aid]s, and floats exactly ([%h]).  Equal
    digests mean equal final states (modulo array identity). *)
val digest_globals : (string * t) list -> string

(** Zero value of a scalar type.
    @raise Invalid_argument for array types (always allocated by [new]). *)
val zero : Mhj.Ast.ty -> t
