(** Interprocedural static may-happen-in-parallel analysis over normalized
    Mini-HJ ASTs.

    The analysis abstracts the S-DPST's Theorem-1 MHP relation to the
    statement level.  Each statement [s] gets two sid sets forming the
    analysis lattice (pointwise set inclusion, bounded by the program's
    statements):

    - [L(s)] — everything that may {e execute during} [s]: [s] itself,
      the bodies of called functions (transitively, via per-function
      summaries iterated to fixpoint — recursion is just a larger
      fixpoint), and all nested statements;
    - [E(s)] — everything that may {e escape} [s]: statements of async
      bodies spawned during [s] whose join ([finish]) is outside [s].
      [finish] resets E to the empty set; [async] escapes its whole body;
      a call escapes its callee's E-summary.

    MHP pairs are emitted where an escape meets later-or-concurrent work:
    for block statements [i < j], [E(s_i) × L(s_j)]; for loops,
    [E(body) × L(body)] (cross-iteration, including self-pairs); within a
    single statement, [E(calls) × L(s)].  The result over-approximates
    the dynamic relation: every pair of steps that may happen in parallel
    in some execution is covered by a pair of their statements (the
    differential property checked in [test/test_static.ml]).

    {b Contexts.}  Each emission additionally records the structural meet
    point it covers as an {!Affine.ctx}: any dynamic overlap of the two
    statements routes through the lowest common structure containing both
    instances (a block, an If/expression statement, or a loop
    re-iteration), and the emission at that meet point is tagged with the
    [For] counters its two sides necessarily share ([shared] — the loops
    enclosing the meet point, since both instances live inside one
    iteration of each) plus, for the loop-rule emission, the loop whose
    distinct iterations separate them ([loop = Some l]).  The
    index-sensitive refinement ({!Racecheck}) may discharge a pair only
    by disproving a collision under {e every} recorded context. *)

module IntSet : Set.S with type elt = int

type t

(** [analyze prog summary] — [summary] supplies per-statement callee
    lists; [prog] must be normalized ({!Mhj.Front.compile}). *)
val analyze : Mhj.Ast.program -> Summary.t -> t

(** May the two statements (by sid; order irrelevant) happen in
    parallel?  [mhp t s s] is a self-pair: two dynamic instances of the
    same statement may overlap (e.g. an async body under a loop). *)
val mhp : t -> int -> int -> bool

(** All pairs, normalized as (min sid, max sid), sorted. *)
val pairs : t -> (int * int) list

(** The structural emission contexts recorded for a pair (empty for
    non-pairs).  Deduplicated, in no particular order. *)
val contexts : t -> int -> int -> Affine.ctx list

(** Finish statements whose body cannot spawn an escaping async — the
    join is a no-op (lint: redundant-finish). *)
val redundant_finishes : t -> (int * Mhj.Loc.t) list

(** Converged per-function summaries (diagnostics/tests). *)
val l_of_func : t -> string -> IntSet.t

val e_of_func : t -> string -> IntSet.t
