(** The Mini-HJ evaluator: one closure compiler shared by the sequential
    depth-first interpreter ({!Interp}) and the parallel engine
    ([Par.Engine]).

    [compile] resolves every name once ({!Mhj.Resolve}: locals to dense
    slots of a per-call [Value.t array] frame, globals to their
    declaration index) and turns the program into OCaml closures, so
    execution does no name lookup and no per-scope allocation beyond the
    S-DPST nodes the runtime itself creates.  Everything that differs
    between runtimes is a {!RUNTIME} hook: cost charging and fuel,
    statement boundaries, monitored accesses, scope entry and exit,
    [async], [finish], [isolated], array ids, [print] and [cas].

    The compiled code fixes the observable order of effects the runtimes
    rely on: an expression node charges {!Cost.expr_node} before its
    operands are evaluated (left to right); a block runs [stmt k] before
    statement [k] and, unless the statement is structural
    ([async]/[finish]/[isolated]/block), charges {!Cost.stmt} right after
    it; a read reports its access just before the value is read, a store
    just before the write, after its index path and right-hand side are
    evaluated.

    Unwinding: [return] raises {!Return_v}, which only the call boundary
    catches, so only calls (and the runtime's own [async]/[finish]/
    [isolated] hooks, which may need to deliver end events or restore
    state) install handlers.  A call's [leave] restores the cursor the
    call was made at, which also repairs everything the scopes it unwound
    through would have restored.  Any other exception is terminal for the
    run (or, in the engine, for the task). *)

exception Runtime_error of string * Mhj.Loc.t

exception Out_of_fuel

(** A [return]'s value unwinding to its call boundary. *)
exception Return_v of Value.t

(** [error loc fmt] raises {!Runtime_error} with a formatted message. *)
val error : Mhj.Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** An activation frame: one slot per local, sized by {!Mhj.Resolve}. *)
type frame = Value.t array

(** What a runtime supplies.  [st] is the runtime's per-task state; all
    cursor positions are (block id, statement index). *)
module type RUNTIME = sig
  type st

  (** What {!enter} hands to the matching {!leave}. *)
  type mark

  (** Charge [n] cost units (fuel, work, the current step). *)
  val charge : st -> int -> unit

  (** Statement boundary: statement [k] of the current block is next. *)
  val stmt : st -> int -> unit

  (** A monitored access to global [g] (its declaration index, which is
      also its interned address). *)
  val global : st -> int -> Monitor.access -> unit

  (** A monitored access to cell [i] of array [aid]. *)
  val cell : st -> int -> int -> Monitor.access -> unit

  (** Draw the id of a fresh [len]-cell array. *)
  val alloc : st -> int -> int

  (** Emit one printed line (without its newline). *)
  val print : st -> string -> unit

  (** Run [f] atomically with respect to other tasks ([cas]). *)
  val exclusive : st -> (unit -> 'a) -> 'a

  (** Enter a scope (block, loop iteration or call) whose statements are
      those of block [bid]. *)
  val enter : st -> Sdpst.Node.kind -> sid:int -> bid:int -> mark

  (** Leave the scope [mark] opened, restoring the cursor to the
      statement [(bid, idx)] that entered it. *)
  val leave : st -> mark -> bid:int -> idx:int -> unit

  (** [async st ~sid ~bid body frame]: the [async] statement [sid] with
      body block [bid]; [body] runs that block's statements on [frame]
      (the spawner's frame: copy it if [body] runs later). *)
  val async : st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit

  val finish : st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit

  val isolated :
    st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit
end

(** A compiled program.  Unbound names and unknown functions raise
    {!Runtime_error} when they execute, as they would under a name-lookup
    interpreter. *)
type 'st program = {
  names : string array;  (** global names, in declaration order *)
  globals : Value.t array;  (** global values; the run's shared state *)
  main_bid : int;  (** [main]'s body block *)
  init : 'st -> unit;
      (** run the global initializers in order; a global becomes visible
          when its initializer completes *)
  main : 'st -> unit;  (** run [main]'s body on a fresh frame *)
}

(** The final global state, sorted by name. *)
val final_globals : _ program -> (string * Value.t) list

module Make (R : RUNTIME) : sig
  (** Compile a normalized program.  Each call yields fresh global
      storage, so one compiled program serves one run.
      @raise Runtime_error when the program is not normalized (use
        {!Mhj.Front.compile}) or has no [main] *)
  val compile : Mhj.Ast.program -> R.st program
end
