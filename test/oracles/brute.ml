(** Brute-force finish-placement oracle.

    Exhaustively enumerates every well-formed placement — a set of
    pairwise nested-or-disjoint vertex intervals, each passing the
    validity predicate — that resolves all dependence edges, and returns
    the minimum completion time.  Exponential; used only by the test suite
    to validate the DP's optimality claim (paper Theorem 2) on small
    dependence graphs. *)

open Repair

let max_vertices = 7

(** Minimum completion time over all valid resolving placements, with a
    witness placement; [None] if no placement resolves the edges.
    @raise Invalid_argument when the graph exceeds {!max_vertices}. *)
let solve ?(valid = fun ~i:_ ~j:_ -> true) (g : Depgraph.t) :
    (int * (int * int) list) option =
  let n = Depgraph.n_vertices g in
  if n > max_vertices then
    invalid_arg
      (Fmt.str "Brute.solve: %d vertices exceeds the oracle bound %d" n
         max_vertices);
  let intervals = ref [] in
  for s = n - 1 downto 0 do
    for e = n - 1 downto s do
      if valid ~i:s ~j:e then intervals := (s, e) :: !intervals
    done
  done;
  let intervals = Array.of_list !intervals in
  let crossing (a1, b1) (a2, b2) =
    (a1 < a2 && a2 <= b1 && b1 < b2) || (a2 < a1 && a1 <= b2 && b2 < b1)
  in
  let best = ref None in
  let consider chosen =
    if Dp_place.resolves_all g chosen then begin
      let cost = Dp_place.eval_placement g chosen in
      match !best with
      | Some (c, _) when c <= cost -> ()
      | _ -> best := Some (cost, chosen)
    end
  in
  let rec go idx chosen =
    if idx = Array.length intervals then consider chosen
    else begin
      go (idx + 1) chosen;
      let iv = intervals.(idx) in
      if not (List.exists (crossing iv) chosen) then
        go (idx + 1) (iv :: chosen)
    end
  in
  go 0 [];
  !best
