(** Computation graph of an async-finish execution.

    The paper's Definition 1 measures parallelism on the computation graph
    of the program; Figure 16 reports execution times on a 12-core machine.
    We derive the computation graph from the S-DPST and the per-step costs:

    - every step becomes a weighted node;
    - sequential composition inside a task adds continue edges;
    - an [async] adds a spawn edge from its predecessor and contributes its
      exit to the enclosing finish's join;
    - a [finish] (and the root) adds a zero-weight join node that waits for
      its body's control exit and every async spawned (transitively, up to
      nested finishes) inside it.

    Nodes are created so that every edge goes from a lower to a higher
    node id — node order is a topological order, which the metrics and the
    scheduler rely on. *)

type t = {
  weights : int Tdrutil.Vec.t;
  succs : int list Tdrutil.Vec.t;  (** successor ids per node *)
  preds : int Tdrutil.Vec.t;  (** in-degree per node *)
  mutable n_edges : int;
  step_node : Tdrutil.Ivec.t;  (** S-DPST step id -> graph node id, or -1 *)
}

let n_nodes g = Tdrutil.Vec.length g.weights

let n_edges g = g.n_edges

let weight g i = Tdrutil.Vec.get g.weights i

let succs g i = Tdrutil.Vec.get g.succs i

let in_degree g i = Tdrutil.Vec.get g.preds i

let create () =
  {
    weights = Tdrutil.Vec.create ();
    succs = Tdrutil.Vec.create ();
    preds = Tdrutil.Vec.create ();
    n_edges = 0;
    step_node = Tdrutil.Ivec.create ();
  }

let add_node g w =
  Tdrutil.Vec.push g.weights w;
  Tdrutil.Vec.push g.succs [];
  Tdrutil.Vec.push g.preds 0;
  n_nodes g - 1

let add_edge g a b =
  if a >= b then invalid_arg "Graph.add_edge: not topological";
  Tdrutil.Vec.set g.succs a (b :: Tdrutil.Vec.get g.succs a);
  Tdrutil.Vec.set g.preds b (Tdrutil.Vec.get g.preds b + 1);
  g.n_edges <- g.n_edges + 1

(** Build the computation graph of an execution's S-DPST. *)
let of_sdpst (tree : Sdpst.Node.tree) : t =
  let module N = Sdpst.Node in
  let g = create () in
  Tdrutil.Ivec.ensure g.step_node tree.N.next_id ~fill:(-1);
  let source = add_node g 0 in
  (* [go n pred] wires the subgraph of S-DPST node [n], whose execution
     starts after graph node [pred].  Returns [(cont, spawned)]: the node
     after which control continues past [n], and the exit nodes of asyncs
     spawned in [n] that are not yet joined by a nested finish. *)
  let rec go (n : N.t) (pred : int) : int * int list =
    match N.collapsed tree n with
    | Some (span, drag) ->
        (* Pruned summary (Analysis.prune): a drag chain carries control,
           and when work outlives the drag a parallel chain carries the
           span. *)
        let d = add_node g drag in
        add_edge g pred d;
        let drag = if N.is_async tree n then 0 else drag in
        let cont = if drag = 0 then pred else d in
        if span > drag then begin
          let s = add_node g span in
          add_edge g pred s;
          (cont, [ s ])
        end
        else (cont, if cont = d then [] else [ d ])
    | None -> go_live n pred
  and go_live (n : N.t) (pred : int) : int * int list =
    match N.kind tree n with
    | N.Step ->
        let v = add_node g (N.cost tree n) in
        Tdrutil.Ivec.set g.step_node n v;
        add_edge g pred v;
        (v, [])
    | N.Scope _ -> seq n pred
    | N.Async ->
        let exit, spawned = seq n pred in
        (* Control in the parent continues from [pred] immediately. *)
        (pred, exit :: spawned)
    | N.Finish | N.Root ->
        let exit, spawned = seq n pred in
        if spawned = [] then (exit, [])
        else begin
          let j = add_node g 0 in
          add_edge g exit j;
          List.iter (fun s -> if s <> exit then add_edge g s j) spawned;
          (j, [])
        end
  and seq (n : N.t) (pred : int) : int * int list =
    let cur = ref pred in
    let spawned = ref [] in
    N.iter_children tree
      (fun c ->
        let cont, sp = go c !cur in
        cur := cont;
        spawned := List.rev_append sp !spawned)
      n;
    (!cur, !spawned)
  in
  let _exit, spawned = go N.root source in
  assert (spawned = []);
  g
