(** Dynamic finish placement (paper §5.2, Algorithms 1 and 3).

    Given the dependence graph of an NS-LCA subtree, compute the set of
    finish blocks — ordered pairs [(s, e)] of vertex indices — that
    resolves every dependence edge while minimizing the completion time of
    the block under the ideal parallel execution model, considering only
    scope-valid placements.

    Dynamic program over intervals [(i, j)] (0-based here):

    - [opt.(i).(j)]: minimal completion time of vertices [i..j];
    - [est_after.(i).(j)]: the paper's [EST(j+1, i..j)] — how long the
      block delays control, under the optimal structure chosen for it;
    - [partition]/[finish]: reconstruction tables (Algorithm 3).

    Two published errata are fixed here (documented in DESIGN.md §4):
    [Cmin] must be initialized before the partition-point loop, and
    Algorithm 3's recursion must be [FIND(p+1, end)]. *)

type outcome = {
  cost : int;  (** optimal completion time of the whole vertex block *)
  finishes : (int * int) list;
      (** the FinishSet: vertex intervals (0-based, inclusive) to wrap,
          outermost first *)
}

exception Unsatisfiable of int * int
(** No scope-valid placement can resolve the dependences of this vertex
    interval. *)

let infinity_cost = max_int / 4

(** Solve the placement problem for [g].

    @param valid scope-validity of wrapping vertices [i..j] in a finish
      (see {!Valid.make_checker}); defaults to always-valid, which yields
      the pure Algorithm 1 used by the unit tests and the brute-force
      oracle comparison.
    @raise Unsatisfiable when dependences cannot be resolved with
      scope-valid finishes. *)
let solve ?(valid = fun ~i:_ ~j:_ -> true) (g : Depgraph.t) : outcome =
  let n = Depgraph.n_vertices g in
  if n = 0 then { cost = 0; finishes = [] }
  else begin
    let opt = Array.make_matrix n n infinity_cost in
    let est_after = Array.make_matrix n n infinity_cost in
    let partition = Array.make_matrix n n (-1) in
    let finish = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      opt.(i).(i) <- g.times.(i);
      partition.(i).(i) <- i;
      finish.(i).(i) <- false;
      (* drags already encodes the async (0) and collapsed-scope
         (summarized) cases; for steps and finishes it equals times *)
      est_after.(i).(i) <- g.Depgraph.drags.(i)
    done;
    for s = 2 to n do
      (* one watchdog poll per interval length: O(n^2) cells apart *)
      Rt.Watchdog.check ();
      for i = 0 to n - s do
        let j = i + s - 1 in
        let opt_i = opt.(i) and est_i = est_after.(i) in
        let c_min = ref infinity_cost in
        let best_p = ref (-1) in
        let best_finish = ref false in
        let best_est = ref infinity_cost in
        (* Each k is a candidate partition [i..k] [k+1..j]; the first
           strictly cheapest one wins. *)
        for k = i to j - 1 do
          let left = opt_i.(k) and right = opt.(k + 1).(j) in
          if left < infinity_cost && right < infinity_cost then begin
            if not (Depgraph.are_crossing g ~i ~k ~j) then begin
              (* No dependence from [i..k] into [k+1..j]: no finish needed;
                 the second block starts once the first block's drag has
                 elapsed. *)
              let c = Int.max left (est_i.(k) + right) in
              if c < !c_min then begin
                c_min := c;
                best_p := k;
                best_finish := false;
                best_est := est_i.(k) + est_after.(k + 1).(j)
              end
            end
            else if left + right < !c_min && valid ~i ~j:k then begin
              (* Crossing dependences: a finish around [i..k] (if a
                 scope-valid one exists) serializes the blocks. *)
              c_min := left + right;
              best_p := k;
              best_finish := true;
              best_est := left + est_after.(k + 1).(j)
            end
          end
        done;
        if !best_p >= 0 then begin
          opt_i.(j) <- !c_min;
          partition.(i).(j) <- !best_p;
          finish.(i).(j) <- !best_finish;
          est_i.(j) <- !best_est
        end
      done
    done;
    if opt.(0).(n - 1) >= infinity_cost then raise (Unsatisfiable (0, n - 1));
    (* Algorithm 3 (with the p+1 fix): recover the FinishSet. *)
    let rec find b e =
      if b >= e then []
      else begin
        let p = partition.(b).(e) in
        let left = find b p in
        let right = find (p + 1) e in
        if finish.(b).(e) then ((b, p) :: left) @ right else left @ right
      end
    in
    { cost = opt.(0).(n - 1); finishes = find 0 (n - 1) }
  end

(** Completion time of the vertex block under an explicit set of finish
    intervals (the cost function the DP minimizes), evaluated directly.
    Intervals must be pairwise nested or disjoint.  Used by the Figure 3/4
    example test and the brute-force oracle. *)
let eval_placement (g : Depgraph.t) (intervals : (int * int) list) : int =
  let n = Depgraph.n_vertices g in
  let sorted =
    List.sort_uniq
      (fun (a1, b1) (a2, b2) ->
        if a1 <> a2 then Int.compare a1 a2 else Int.compare b2 b1)
      intervals
  in
  (* Evaluate the sequence lo..hi given the intervals nested inside; returns
     (span, drag) of the composed block. *)
  let rec eval lo hi ivs =
    let rec top_level = function
      | [] -> []
      | (a, b) :: rest ->
          let inner, siblings =
            List.partition (fun (x, y) -> x >= a && y <= b) rest
          in
          (* [rest] is sorted by (lo asc, hi desc), so every sibling starts
             at or after [a]; one that starts inside [a, b] but was not
             fully contained crosses the interval — the documented
             precondition (pairwise nested or disjoint) is violated and the
             evaluation would be silently wrong. *)
          List.iter
            (fun (x, y) ->
              if x <= b then
                invalid_arg
                  (Printf.sprintf
                     "Dp_place.eval_placement: overlapping intervals (%d, \
                      %d) and (%d, %d)"
                     a b x y))
            siblings;
          ((a, b), inner) :: top_level siblings
    in
    let tops = top_level ivs in
    let start = ref 0 in
    let span = ref 0 in
    let cursor = ref lo in
    let emit_vertex v =
      span := max !span (!start + g.times.(v));
      start := !start + g.Depgraph.drags.(v)
    in
    List.iter
      (fun ((a, b), inner) ->
        for v = !cursor to a - 1 do
          emit_vertex v
        done;
        let inner_span, _inner_drag = eval a b inner in
        (* a finish: control blocks until everything inside completes *)
        span := max !span (!start + inner_span);
        start := !start + inner_span;
        cursor := b + 1)
      tops;
    for v = !cursor to hi do
      emit_vertex v
    done;
    (!span, !start)
  in
  if n = 0 then 0 else fst (eval 0 (n - 1) sorted)

(** Does [intervals] resolve every dependence edge of [g]?  Edge [(x, y)]
    needs some interval [(s, e)] with [s <= x <= e < y] (paper §5.2). *)
let resolves_all (g : Depgraph.t) (intervals : (int * int) list) : bool =
  List.for_all
    (fun (x, y) ->
      List.exists (fun (s, e) -> s <= x && x <= e && e < y) intervals)
    g.edges
