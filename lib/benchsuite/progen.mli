(** Random async-finish program generator for property-based testing:
    well-typed, terminating, normalized Mini-HJ programs with random
    nested async/finish/if/for/block structure over a small pool of shared
    global arrays, plus a final read of everything so that unsynchronized
    writes race.  The mix includes affine array-subscript parallel loops —
    both provably disjoint variants (identity, strided, even/odd
    interleaved subscripts) and genuinely racy ones (neighbouring-cell
    overlap, constant cell) — so differential properties exercise the
    index-sensitive static refinement in both directions. *)

type config = {
  max_depth : int;  (** structural nesting bound *)
  max_stmts : int;  (** statements per block bound *)
  n_arrays : int;  (** shared global arrays *)
  arr_len : int;
  allow_finish : bool;  (** emit pre-existing finish statements *)
  allow_calls : bool;  (** emit helper-function calls *)
}

val default : config

(** Generate a program source from a seed; same seed, same program. *)
val generate : ?cfg:config -> seed:int -> unit -> string

(** {1 Closed-form scale workloads}

    Deterministic (seed-free) programs whose monitored-access count is a
    closed form of the configuration — the scale bench and the
    memory-bound differentials dial them from ~10^5 to ~10^7 accesses.
    Race-free except for a [racy_pairs]-controlled appendix of unjoined
    async pairs, each contributing exactly two deterministic race
    records. *)

type scale_shape =
  | Grid of { tasks : int; reps : int }
      (** one wide [forasync] over disjoint array slices: peak
          parallelism, large uniformly-touched address space *)
  | Deep of { depth : int; reps : int }
      (** a chain of nested [finish { async { ... } }] levels: stresses
          live-task state (clocks, bag depth), not address volume *)
  | Hot of { tasks : int; reps : int; hot : int }
      (** address skew: every task re-reads a tiny shared array, whose
          cells accumulate reader entries from all tasks *)
  | Phased of { phases : int; tasks : int; reps : int; hot : int }
      (** sequential top-level finish phases of the [Hot] shape over the
          same arrays — the epoch-GC workload: each phase close makes
          the previous phase's shadow entries retirable *)
  | Sparse of { pad_arrays : int; pad_len : int; tasks : int; reps : int }
      (** large interned id space ([pad_arrays * pad_len] never-accessed
          pad cells) with all traffic in the last-declared array — the
          slab-chunking workload: a dense per-id shadow would span
          every pad id, a chunked one only the touched tail *)

type scale_config = { shape : scale_shape; racy_pairs : int }

(** Monitored accesses the generated program performs, up to small
    additive constants (array init and the final print). *)
val scale_accesses : scale_config -> int

(** Mini-HJ source of the workload.
    @raise Invalid_argument on non-positive dimensions. *)
val generate_scaled : scale_config -> string

(** Named full-size presets (~10^6 accesses each), as committed in
    BENCH_scale.json. *)
val scale_presets : (string * scale_config) list
