(** Work-stealing scheduler simulation.

    The paper's substrate (Habanero Java) executes async-finish programs
    under a work-stealing runtime with either a {e work-first} or a
    {e help-first} task-creation policy (Guo, Barik, Raman, Sarkar,
    IPDPS 2009 — the paper's [11]).  {!Sched} simulates the idealized
    greedy scheduler; this module simulates per-processor deques with
    stealing, so the bench harness can show that the repaired programs'
    advantage is robust to the scheduling policy (an ablation the paper
    leaves implicit in its use of the HJ runtime).

    Model: each processor owns a deque of ready nodes.  Completing a node
    enables successors, which are pushed onto the completing processor's
    deque with a {e ready time}; a node never starts before its ready
    time.  Under [Work_first] the processor continues with the first
    enabled successor (depth-first, like executing a spawned child
    eagerly); under [Help_first] with the last (like queueing children
    and continuing the parent).  Idle processors steal the oldest entry
    of a deterministically chosen victim at [steal_overhead] cost.  All
    decisions are deterministic given [seed]. *)

open Compgraph

type policy = Work_first | Help_first

let pp_policy ppf = function
  | Work_first -> Fmt.string ppf "work-first"
  | Help_first -> Fmt.string ppf "help-first"

type stats = {
  makespan : int;  (** simulated parallel execution time *)
  steals : int;  (** successful steals *)
}

let default_steal_overhead = 1

(** Simulate [g] on [procs] processors under work-stealing.

    @param policy task-creation policy (default [Work_first])
    @param steal_overhead time a successful steal costs the thief
    @param seed victim-selection randomness (deterministic) *)
let simulate ?(procs = 12) ?(policy = Work_first)
    ?(steal_overhead = default_steal_overhead) ?(seed = 42) (g : Graph.t) :
    stats =
  if procs <= 0 then invalid_arg "Steal.simulate: procs must be positive";
  let n = Graph.n_nodes g in
  if n = 0 then { makespan = 0; steals = 0 }
  else begin
    let rng = Tdrutil.Prng.create ~seed in
    let indeg = Array.init n (Graph.in_degree g) in
    let ready_time = Array.make n 0 in
    (* Deques as lists: front = hot end (own pops); steals take the cold
       (rear) end. *)
    let deques = Array.make procs [] in
    let free_time = Array.make procs 0 in
    for i = n - 1 downto 0 do
      if indeg.(i) = 0 then deques.(0) <- i :: deques.(0)
    done;
    let steals = ref 0 in
    let makespan = ref 0 in
    let remaining = ref n in
    let pop_own p =
      match deques.(p) with
      | x :: rest ->
          deques.(p) <- rest;
          Some x
      | [] -> None
    in
    let steal_for p =
      let start = Tdrutil.Prng.int rng procs in
      let found = ref None in
      for k = 0 to procs - 1 do
        let v = (start + k) mod procs in
        if !found = None && v <> p then
          match List.rev deques.(v) with
          | cold :: rest_rev ->
              deques.(v) <- List.rev rest_rev;
              found := Some cold
          | [] -> ()
      done;
      !found
    in
    while !remaining > 0 do
      (* the processor that can act earliest takes the next decision *)
      let p = ref 0 in
      for q = 1 to procs - 1 do
        if free_time.(q) < free_time.(!p) then p := q
      done;
      let p = !p in
      let node =
        match pop_own p with
        | Some x -> Some x
        | None -> (
            match steal_for p with
            | Some x ->
                incr steals;
                free_time.(p) <- free_time.(p) + steal_overhead;
                Some x
            | None ->
                (* nothing to steal: every deque is empty, so all
                   remaining work is enabled in the future by the busy
                   processors.  Jump this processor's clock to the next
                   completion to avoid spinning. *)
                let next = ref max_int in
                for q = 0 to procs - 1 do
                  if q <> p && free_time.(q) > free_time.(p) then
                    next := min !next free_time.(q)
                done;
                free_time.(p) <-
                  (if !next = max_int then free_time.(p) + 1 else !next);
                None)
      in
      match node with
      | None -> ()
      | Some v ->
          let start = max free_time.(p) ready_time.(v) in
          let finish = start + Graph.weight g v in
          free_time.(p) <- finish;
          if finish > !makespan then makespan := finish;
          decr remaining;
          let enabled =
            List.filter
              (fun s ->
                ready_time.(s) <- max ready_time.(s) finish;
                indeg.(s) <- indeg.(s) - 1;
                indeg.(s) = 0)
              (Graph.succs g v)
          in
          let enabled =
            match policy with
            | Work_first -> enabled
            | Help_first -> List.rev enabled
          in
          deques.(p) <- enabled @ deques.(p)
    done;
    { makespan = !makespan; steals = !steals }
  end

let makespan ?procs ?policy ?steal_overhead ?seed g =
  (simulate ?procs ?policy ?steal_overhead ?seed g).makespan
