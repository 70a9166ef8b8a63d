(** Sequential depth-first interpreter for Mini-HJ.

    The paper's analyses all run over the {e canonical sequential
    (depth-first) execution} of the parallel program: an [async] body runs
    to completion at its spawn point, exactly like the serial elision, while
    the S-DPST records the parallel structure.  This module is that
    runtime for the shared evaluator ({!Eval}): it charges abstract
    {!Cost} units to the current step, builds the S-DPST, and reports
    structural transitions and shared-memory accesses to an optional
    {!Monitor}.

    Structural mapping from program to S-DPST:
    - the root node stands for [main]'s task and its implicit finish;
    - an [async]/[finish] statement creates an async/finish node whose
      children come directly from its body block (the AST is normalized, so
      the body always is a block);
    - entering any other block (branch or loop body, nested block,
      [isolated] body) creates a [Scope Sblock] node; each loop iteration
      is a fresh scope instance;
    - calling a user function creates a [Scope (Scall f)] node — possibly
      in the middle of a step, which ends at the call and resumes after;
    - maximal monitored/costed runs between structural transitions become
      step leaves.

    Global initializers run before [main], outside any step: they are
    sequenced before every task, so they never race, charge fuel but not
    [work], and report no accesses.  The watchdog ({!Watchdog}) of the
    calling domain is polled every ~1k cost units. *)

exception Runtime_error of string * Mhj.Loc.t

exception Out_of_fuel

type result = {
  output : string;  (** everything [print]ed, one line per call *)
  tree : Sdpst.Node.tree;  (** the S-DPST of the execution *)
  work : int;  (** total cost units charged (serial execution time) *)
  globals : (string * Value.t) list;
      (** final global-variable state, sorted by name — the reference the
          parallel backend's schedule-fuzzing differential checks compare
          against (digest with {!Value.digest_globals}) *)
  intern : Addr.Intern.t;
      (** the run's address interner: resolves the interned ids reported
          to the monitor back to boxed {!Addr.t}s *)
}

val default_fuel : int

(** Execute a program depth-first from [main].

    @param monitor receives structural and memory-access events
    @param fuel abort with {!Out_of_fuel} after this many cost units
    @raise Runtime_error on dynamic errors (bounds, division by zero, ...)
      and on malformed programs (not normalized — use {!Mhj.Front.compile}
      — or lacking a [main]); always carries a source location when one is
      known *)
val run : ?monitor:Monitor.t -> ?fuel:int -> Mhj.Ast.program -> result

(** Run the serial elision (all parallel constructs erased) — the
    reference semantics for repair correctness. *)
val run_elision : ?fuel:int -> Mhj.Ast.program -> result
