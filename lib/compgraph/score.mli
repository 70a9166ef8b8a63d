(** Candidate scoring for the repair-strategy tournament: WORK / CPL /
    simulated makespan of a candidate's execution, with optional
    mutual-exclusion edges serializing conflicting [isolated] sections. *)

type t = {
  work : int;  (** total work (1-processor time) *)
  cpl : int;  (** critical path length (unbounded-processor time) *)
  makespan : int;  (** greedy schedule on [procs] processors *)
  parallelism : float;  (** work / cpl *)
}

val pp : t Fmt.t

(** Score an execution's S-DPST.  [serialize] lists S-DPST step-id pairs
    to join with a mutual-exclusion edge (depth-first order); pairs not
    present in the graph are ignored, duplicates are added once. *)
val of_tree : ?procs:int -> ?serialize:(int * int) list -> Sdpst.Node.tree -> t
