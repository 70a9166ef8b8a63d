(** Candidate scoring for the repair-strategy tournament.

    A repair candidate is judged on the computation graph of one of its
    executions: total WORK, critical path length (CPL), and the simulated
    makespan on a bounded machine ({!Sched.simulate}).  The tournament
    selects the minimum-CPL race-free candidate.

    Isolation-based candidates carry extra {e mutual-exclusion} edges:
    two conflicting [isolated] section instances never overlap, so the
    scored graph serializes each conflicting pair in depth-first order (a
    schedule every mutual-exclusion implementation can realize).  Pairs
    are given as S-DPST step-node ids and resolved through the graph's
    step-node table. *)

type t = {
  work : int;  (** total work (1-processor time) *)
  cpl : int;  (** critical path length (unbounded-processor time) *)
  makespan : int;  (** greedy schedule on [procs] processors *)
  parallelism : float;  (** work / cpl *)
}

let pp ppf s =
  Fmt.pf ppf "work=%d cpl=%d makespan=%d par=%.2f" s.work s.cpl s.makespan
    s.parallelism

let of_graph ?procs (g : Graph.t) : t =
  let work = Metrics.work g in
  let cpl = Metrics.span g in
  {
    work;
    cpl;
    makespan = Sched.makespan ?procs g;
    parallelism = (if cpl = 0 then 1.0 else float_of_int work /. float_of_int cpl);
  }

(** Score an execution's S-DPST.  [serialize] lists S-DPST step-id pairs
    to connect with a mutual-exclusion edge (earlier node -> later node);
    pairs whose steps were pruned from the graph, or that are equal, are
    ignored.  Duplicate edges are added once. *)
let of_tree ?procs ?(serialize : (int * int) list = [])
    (tree : Sdpst.Node.tree) : t =
  let g = Graph.of_sdpst tree in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let node s =
        if s >= 0 && s < Tdrutil.Ivec.length g.Graph.step_node then
          Tdrutil.Ivec.get g.Graph.step_node s
        else -1
      in
      match (node a, node b) with
      | na, nb when na >= 0 && nb >= 0 && na <> nb ->
          let lo, hi = if na < nb then (na, nb) else (nb, na) in
          if not (Hashtbl.mem seen (lo, hi)) then begin
            Hashtbl.add seen (lo, hi) ();
            Graph.add_edge g lo hi
          end
      | _ -> ())
    serialize;
  of_graph ?procs g
