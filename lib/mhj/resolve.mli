(** Name resolution for the evaluator.

    Every local variable of a function (parameter, [var]/[val], [for]
    induction variable) gets a dense slot in that function's activation
    frame, and every global its declaration index — which is also its
    interned address id ({!Rt.Addr.Intern}).  Resolution is lexical and
    mirrors the runtime scoping exactly: a name refers to the innermost
    declaration visible at the reference, then to a global, else it is
    unbound (the evaluator reports that when the reference executes).

    Slots are allocated stack-wise: a scope's slots are reused by the
    next sibling scope, so a frame is as large as the deepest nesting of
    live declarations, not the number of declarations.  Reuse is safe
    because a slot is only read by references that follow its
    declaration in the same scope.

    The resolver is driven by the caller's walk over the AST
    ({!Rt.Eval} compiles while it resolves): {!func} opens a function,
    {!scope} a nested block, {!declare} binds a name at the current
    point and {!lookup} resolves one. *)

type var =
  | Local of int  (** slot in the current function's frame *)
  | Global of int  (** declaration index of a global *)
  | Unbound

type t

(** A resolver for a program's functions; globals are indexed in
    declaration order. *)
val create : Ast.program -> t

(** [func t params f] resolves one function body: [params] take slots
    [0 ..], [f] walks the body.  Returns [f]'s result and the frame size
    the function needs. *)
val func : t -> string list -> (unit -> 'a) -> 'a * int

(** [scope t f] runs [f] in a nested lexical scope; its declarations are
    dropped (and their slots freed) on return. *)
val scope : t -> (unit -> 'a) -> 'a

(** Bind a name in the innermost scope and return its slot. *)
val declare : t -> string -> int

val lookup : t -> string -> var
