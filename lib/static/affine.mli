(** Affine subscript forms and sound disjointness tests for the
    index-sensitive race refinement.

    {b Lattice.}  A {!form} abstracts the integer value of an expression
    as an affine combination of [for] loop counters plus a constant, or
    one of two extreme elements:

    {v   Bot  ⊑  Aff (c1·v1 + … + cn·vn + k)  ⊑  Top   v}

    Loop counters are identified by the {e statement id of the binding
    [For]}, not by name, so shadowing and cross-function flows (a counter
    passed as a call argument) cannot confuse two distinct loops.  [Top]
    means "any integer" (non-affine, or derived from mutable state);
    [Bot] means "no value observed yet" and only occurs transiently
    inside the summary fixpoint (a parameter of a function with no
    analyzed call yet) — every consumer must treat it like [Top].  The
    soundness contract of [Aff]: in any execution, the dynamic value of
    the abstracted expression equals [k + Σ ci·(value of counter vi)]
    where each counter value is the one bound by the corresponding [For]
    iteration enclosing (or passed into) the access.

    {b Loop metadata.}  A {!loops} table gives each [For] statement its
    counter name and constant-folded bounds.  Facts used by the tests
    (all verified against the interpreter):
    - bounds and step are evaluated {e once} per loop execution;
    - the counter is immutable in the body ({!Mhj.Typecheck});
    - the step is non-zero and may be negative; bounds are inclusive, so
      every bound value lies in [[min lo hi, max lo hi]];
    - every value is congruent to [lo] modulo [|step|].

    {b Contexts.}  The MHP analysis tags each pair emission with the
    structural meet point it covers (see {!Mhp}): [shared] is the set of
    [For] sids whose counters are guaranteed to hold {e equal} values in
    the two overlapping instances (the loops enclosing the meet point),
    and [loop = Some l] additionally guarantees the two instances belong
    to {e distinct iterations of one execution} of loop [l] — their [l]
    values differ by a non-zero multiple of the step, bounded by the
    loop's span.

    {b Disjointness.}  [disjoint loops ctx fa fb] returns [Ok ()] only
    when the two subscript values are provably unequal in every execution
    consistent with the context, via (in order): the exact cross-iteration
    test [c·δ + h = 0] when both forms have the same non-zero coefficient
    on the context loop (constant-offset separation, stride/GCD residue,
    and span bounds), then interval non-overlap from constant loop
    bounds, then a GCD residue test from constant [lo]/[step] lattices.
    Variables not shared between the two instances are renamed apart and
    range over their full value sets — independence is the weakest
    assumption, so the tests stay sound.  Any missing information makes
    the test fail with a {!reason}, never a wrong proof. *)

module IntSet : Set.S with type elt = int

(** Affine forms over [For]-statement counters.  Invariant on [Aff
    (terms, k)]: terms are sorted by sid, with non-zero coefficients and
    no duplicate sids — maintained by the smart constructors, so
    structural equality decides semantic equality.  Build forms with
    {!const}/{!var} and the arithmetic below; match freely. *)
type form =
  | Bot  (** no value observed yet (uncalled function's parameter) *)
  | Aff of (int * int) list * int  (** [(For sid, coeff)] terms + const *)
  | Top  (** any integer *)

val const : int -> form

val var : int -> form

val add : form -> form -> form

val sub : form -> form -> form

val neg : form -> form

val mul : form -> form -> form
(** Sound only when at least one side is constant; otherwise [Top]. *)

(** Least upper bound in [Bot ⊑ Aff ⊑ Top]; two distinct affine forms
    join to [Top]. *)
val join : form -> form -> form

val equal : form -> form -> bool

(** Constant-folded metadata of one [For] statement.  [lo]/[hi]/[step]
    are [Some] only when the bound expression folds to the same integer
    in {e every} execution (literals and immutable locals with such
    initializers); [step = Some s] has [s <> 0]. *)
type bounds = {
  counter : string;
  lo : int option;
  hi : int option;
  step : int option;
  floc : Mhj.Loc.t;
}

(** [For] sid -> folded bounds, built by {!Summary.build}. *)
type loops = (int, bounds) Hashtbl.t

(** One MHP emission context (see the module preamble). *)
type ctx = { loop : int option; shared : IntSet.t }

val ctx_equal : ctx -> ctx -> bool

(** Why a conflict survived refinement (most specific failure wins). *)
type reason =
  | Global of string  (** collision on a global; no subscript to refine *)
  | Non_affine
      (** a colliding occurrence's subscript is not affine (or flows
          through mutable state / multiple call sites) *)
  | Unknown_bounds
      (** affine subscripts, but a needed bound or step is not a
          compile-time constant *)
  | May_overlap  (** full information, and the indices can collide *)

val describe : reason -> string

val disjoint : loops -> ctx -> form -> form -> (unit, reason) result
