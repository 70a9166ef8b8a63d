(** Work-stealing scheduler simulation with the HJ runtime's task-creation
    policies (Guo et al., IPDPS 2009 — the paper's [11]): per-processor
    deques, deterministic victim selection, explicit steal overhead.  Used
    by the ablation bench to show Figure 16's result is robust to the
    scheduling policy. *)

open Compgraph

type policy =
  | Work_first  (** continue with the first enabled successor (depth-first) *)
  | Help_first  (** queue children, continue breadth-ish *)

val pp_policy : policy Fmt.t

type stats = {
  makespan : int;  (** simulated parallel execution time *)
  steals : int;  (** successful steals *)
}

val default_steal_overhead : int

(** Simulate on [procs] processors.  Deterministic given [seed].
    @raise Invalid_argument if [procs <= 0]. *)
val simulate :
  ?procs:int -> ?policy:policy -> ?steal_overhead:int -> ?seed:int ->
  Graph.t -> stats

val makespan :
  ?procs:int -> ?policy:policy -> ?steal_overhead:int -> ?seed:int ->
  Graph.t -> int
