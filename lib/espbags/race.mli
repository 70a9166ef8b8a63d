(** Data race reports: a race connects the {e source} step (earlier in
    depth-first order) to the {e sink} step (paper §4.2, the dotted edges
    of Figure 9). *)

type kind =
  | Write_read  (** earlier write, later read *)
  | Read_write  (** earlier read, later write *)
  | Write_write

val pp_kind : kind Fmt.t

type t = private {
  src : Sdpst.Node.t;  (** source step *)
  sink : Sdpst.Node.t;  (** sink step *)
  addr : Rt.Addr.t;  (** the contended location *)
  kind : kind;
  tree : Sdpst.Node.tree;  (** the S-DPST both steps belong to *)
}

(** @raise Assert_failure if [src] does not precede [sink]. *)
val make :
  tree:Sdpst.Node.tree ->
  src:Sdpst.Node.t ->
  sink:Sdpst.Node.t ->
  addr:Rt.Addr.t ->
  kind:kind ->
  t

val pp : t Fmt.t

(** Exact per-record signatures [(src id, sink id, addr, kind)] — node
    ids are deterministic under the depth-first interpreter, so two runs
    report the same races in the same order iff their signature lists
    are equal.  The comparator shared by the differential test harness
    and the bench byte-identity assertions. *)
val exact_sigs : t list -> (int * int * string * string) list

val pp_sig : (int * int * string * string) Fmt.t

type race := t

(** The distinct (source step, sink step) pairs of a run's races, in
    first-seen order, each with its multiplicity: all that placement
    needs (one dependence edge per step pair, paper §5.1).

    A set is built in one pass over races in {e report order}.  The sink
    of every report is the step running at the time, and the depth-first
    run never resumes a step, so sink ids never decrease and each sink's
    reports are contiguous; a per-source index stamp is then an exact
    dedupe with no hashing.  {!build} checks that precondition on every
    key and raises [Invalid_argument] when it fails, so {!of_list} and
    {!dedupe_by_steps} reject a list out of report order. *)
module Pairs : sig
  type t

  (** [build ~tree feed] calls [feed add] once; [add key] records the
      packed key [(src lsl 31) lor sink] of one race report, steps of
      [tree], and says whether its pair is new.
      @raise Invalid_argument if a sink id decreases or a source does not
        precede its sink *)
  val build : tree:Sdpst.Node.tree -> ((int -> bool) -> unit) -> t

  (** The pair set of races in report order.
      @raise Invalid_argument as {!build} on a list out of report order *)
  val of_list : race list -> t

  (** Distinct pairs. *)
  val length : t -> int

  (** Race reports behind the pairs: the sum of their multiplicities. *)
  val n_races : t -> int

  (** [count t k]: reports of pair [k] (0-based, first-seen order). *)
  val count : t -> int -> int

  val src_id : t -> int -> Sdpst.Node.t
  val sink_id : t -> int -> Sdpst.Node.t

  (** The tree of the steps. *)
  val tree : t -> Sdpst.Node.tree

  (** [map f t] moves both steps of every pair by [f] and merges the
      pairs that meet, in first-seen order, each with the summed
      multiplicity of the pairs moved onto it.  With [f] monotone in
      step id, the moved pairs are in report order too.
      @raise Invalid_argument if a moved source does not precede its
        moved sink *)
  val map : (Sdpst.Node.t -> Sdpst.Node.t) -> t -> t

  (** The pairs [k] with [keep k], in order, multiplicities kept. *)
  val filter : (int -> bool) -> t -> t
end

(** Distinct (source step, sink step) pairs, first-seen order: the first
    record of each pair.
    @raise Invalid_argument on a list out of report order (see {!Pairs}) *)
val dedupe_by_steps : t list -> t list
