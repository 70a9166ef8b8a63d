(** Registry of the Table 1 benchmarks, in the paper's order. *)

val all : Bench.t list

(** Case-insensitive lookup by name. *)
val find : string -> Bench.t option

val names : string list

(** Closed-form scale workloads (detector memory-bound stress; DESIGN.md
    §15).  Not part of {!all}: Table 1 drives the repair experiments,
    these drive [bench scale].  Repair-mode sources are small and
    repairable; perf-mode sources are ~10^6-access presets. *)
val scale : Bench.t list
