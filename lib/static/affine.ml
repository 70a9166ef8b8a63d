(** Affine subscript forms and sound disjointness tests (see affine.mli
    for the lattice, the context model and the soundness contract). *)

module IntSet = Set.Make (Int)

type form = Bot | Aff of (int * int) list * int | Top

let const k = Aff ([], k)

let var sid = Aff ([ (sid, 1) ], 0)

(* Merge two sorted term lists, summing coefficients and dropping zeros —
   keeps the [Aff] normal form so (=) decides semantic equality. *)
let rec merge_terms ta tb =
  match (ta, tb) with
  | [], t | t, [] -> t
  | (va, ca) :: ra, (vb, _) :: _ when va < vb -> (va, ca) :: merge_terms ra tb
  | (va, _) :: _, (vb, cb) :: rb when vb < va -> (vb, cb) :: merge_terms ta rb
  | (v, ca) :: ra, (_, cb) :: rb ->
      let c = ca + cb in
      if c = 0 then merge_terms ra rb else (v, c) :: merge_terms ra rb

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, _ | _, Top -> Top
  | Aff (ta, ka), Aff (tb, kb) -> Aff (merge_terms ta tb, ka + kb)

let neg = function
  | Bot -> Bot
  | Top -> Top
  | Aff (ts, k) -> Aff (List.map (fun (v, c) -> (v, -c)) ts, -k)

let sub a b = add a (neg b)

let mul_const k = function
  | Bot -> Bot
  | _ when k = 0 -> const 0
  | Top -> Top
  | Aff (ts, k0) -> Aff (List.map (fun (v, c) -> (v, c * k)) ts, k0 * k)

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Aff ([], k), f | f, Aff ([], k) -> mul_const k f
  | _ -> Top

let equal (a : form) (b : form) = a = b

let join a b =
  match (a, b) with
  | Bot, f | f, Bot -> f
  | Top, _ | _, Top -> Top
  | _ -> if equal a b then a else Top

type bounds = {
  counter : string;
  lo : int option;
  hi : int option;
  step : int option;
  floc : Mhj.Loc.t;
}

type loops = (int, bounds) Hashtbl.t

type ctx = { loop : int option; shared : IntSet.t }

let ctx_equal a b = a.loop = b.loop && IntSet.equal a.shared b.shared

type reason = Global of string | Non_affine | Unknown_bounds | May_overlap

let describe = function
  | Global g ->
      Fmt.str
        "the collision is on global '%s'; index refinement applies to \
         array cells only"
        g
  | Non_affine ->
      "a subscript is not an affine function of enclosing loop counters"
  | Unknown_bounds ->
      "the subscripts are affine but a loop bound or step is not a \
       compile-time constant"
  | May_overlap -> "the affine subscripts can evaluate to the same index"

(* ------------------------------------------------------------------ *)
(* Per-loop value facts                                                *)
(* ------------------------------------------------------------------ *)

(* Counter values of one loop execution lie in [min lo hi, max lo hi]
   (inclusive bounds, either step sign); constant only when both bounds
   fold. *)
let range (loops : loops) v =
  match Hashtbl.find_opt loops v with
  | Some { lo = Some lo; hi = Some hi; _ } -> Some (min lo hi, max lo hi)
  | _ -> None

(* Counter values satisfy [v ≡ lo (mod |step|)] — valid across all
   executions only when both [lo] and [step] fold to constants. *)
let residue_info (loops : loops) v =
  match Hashtbl.find_opt loops v with
  | Some { lo = Some lo; step = Some s; _ } -> Some (abs s, lo)
  | _ -> None

let step_abs (loops : loops) v =
  match Hashtbl.find_opt loops v with
  | Some { step = Some s; _ } -> Some (abs s)
  | _ -> None

let span (loops : loops) v =
  match range loops v with Some (lo, hi) -> Some (hi - lo) | None -> None

(* ------------------------------------------------------------------ *)
(* The merged difference  g = f_a(instance 1) - f_b(instance 2)        *)
(* ------------------------------------------------------------------ *)

(* Counters shared between the two instances (the context's [shared]
   set) collapse to a single variable; every other counter is renamed
   apart — the two instances' values are treated as independent, which
   is the weakest (hence sound) assumption. *)
type mkey = Kshared of int | Ka of int | Kb of int

let sid_of_key = function Kshared v | Ka v | Kb v -> v

let merge_diff ~shared (ta, ka) (tb, kb) =
  let tbl = Hashtbl.create 8 in
  let bump key c =
    let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (cur + c)
  in
  List.iter
    (fun (v, c) ->
      bump (if IntSet.mem v shared then Kshared v else Ka v) c)
    ta;
  List.iter
    (fun (v, c) ->
      bump (if IntSet.mem v shared then Kshared v else Kb v) (-c))
    tb;
  let terms =
    Hashtbl.fold (fun k c acc -> if c = 0 then acc else (k, c) :: acc) tbl []
  in
  (terms, ka - kb)

(* Interval of the merged difference from constant loop bounds; [None]
   when any variable lacks them. *)
let interval loops terms k =
  try
    Some
      (List.fold_left
         (fun (lo, hi) (key, c) ->
           match range loops (sid_of_key key) with
           | Some (vl, vh) ->
               if c > 0 then (lo + (c * vl), hi + (c * vh))
               else (lo + (c * vh), hi + (c * vl))
           | None -> raise Exit)
         (k, k) terms)
  with Exit -> None

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Residue lattice of the merged difference: all its values lie in
   [r + g·Z] ([g = 0] means exactly [r]).  Needs a constant [lo] and
   [step] for every variable. *)
let residue loops terms k =
  try
    Some
      (List.fold_left
         (fun (g, r) (key, c) ->
           match residue_info loops (sid_of_key key) with
           | Some (s, lo) -> (gcd g (c * s), r + (c * lo))
           | None -> raise Exit)
         (0, k) terms)
  with Exit -> None

(* ------------------------------------------------------------------ *)
(* Disjointness                                                        *)
(* ------------------------------------------------------------------ *)

let coeff v = function
  | Aff (ts, _) -> Option.value ~default:0 (List.assoc_opt v ts)
  | _ -> 0

let drop v = function
  | Aff (ts, k) -> (List.remove_assoc v ts, k)
  | _ -> ([], 0)

(* Prove the merged difference never equals zero: interval exclusion,
   then GCD residue.  [Unknown_bounds] when a test could not run for
   lack of constant bounds. *)
let nonzero loops (terms, k) =
  if terms = [] then if k <> 0 then Ok () else Error May_overlap
  else
    let itv = interval loops terms k in
    match itv with
    | Some (lo, hi) when lo > 0 || hi < 0 -> Ok ()
    | _ -> (
        match residue loops terms k with
        | Some (g, r) when g <> 0 && r mod g <> 0 -> Ok ()
        | rz ->
            if itv = None || rz = None then Error Unknown_bounds
            else Error May_overlap)

(* Cross-iteration test for context loop [l] when both subscripts carry
   the same non-zero coefficient [c] on it: the instances' counter
   values differ by δ, a non-zero multiple of the step with |δ| ≤ span,
   and collision requires  c·δ + h = 0  where [h] is the merged
   difference of the remaining terms. *)
let delta_test loops ~shared ~l ~c fa fb =
  let h_terms, h_k = merge_diff ~shared (drop l fa) (drop l fb) in
  let s = step_abs loops l and sp = span loops l in
  let no_two_iterations =
    match (sp, s) with
    | Some sp, Some s -> sp < s
    | Some sp, None -> sp < 1
    | None, _ -> false
  in
  if no_two_iterations then Ok ()
  else if h_terms = [] then
    (* exact: a solution is δ = -h/c, constrained by stride and span *)
    let k = h_k in
    if k = 0 then Ok ()
    else if k mod c <> 0 then Ok ()
    else
      let d = -k / c in
      let stride_rules_out =
        match s with Some s -> d mod s <> 0 | None -> false
      and span_rules_out =
        match sp with Some sp -> abs d > sp | None -> false
      in
      if stride_rules_out || span_rules_out then Ok ()
      else if s = None || sp = None then Error Unknown_bounds
      else Error May_overlap
  else
    let s' = Option.value ~default:1 s in
    let min_gap = abs c * s' in
    let itv = interval loops h_terms h_k in
    let near =
      (* |h| < |c·δ|'s minimum for every value of h *)
      match itv with
      | Some (lo, hi) -> lo > -min_gap && hi < min_gap
      | None -> false
    and far =
      (* every value of h is beyond the largest reachable |c·δ| *)
      match (sp, itv) with
      | Some sp, Some (lo, hi) ->
          let reach = abs c * sp in
          lo > reach || hi < -reach
      | _ -> false
    in
    if near || far then Ok ()
    else
      let rz = residue loops h_terms h_k in
      let residue_rules_out =
        (* c·δ ranges over (|c|·step)·Z; h over r + g·Z: they can cancel
           only when gcd(g, |c|·step) divides r *)
        match rz with
        | Some (g, r) ->
            let gg = gcd g min_gap in
            gg <> 0 && r mod gg <> 0
        | None -> false
      in
      if residue_rules_out then Ok ()
      else if itv = None || rz = None || s = None || sp = None then
        Error Unknown_bounds
      else Error May_overlap

let disjoint loops (ctx : ctx) fa fb =
  match (fa, fb) with
  | (Bot | Top), _ | _, (Bot | Top) -> Error Non_affine
  | Aff _, Aff _ -> (
      match ctx.loop with
      | Some l when coeff l fa = coeff l fb && coeff l fa <> 0 ->
          delta_test loops ~shared:ctx.shared ~l ~c:(coeff l fa) fa fb
      | _ ->
          (* no usable iteration structure: rename the context loop's
             instances apart like any other non-shared counter *)
          nonzero loops
            (merge_diff ~shared:ctx.shared
               (match fa with Aff (t, k) -> (t, k) | _ -> ([], 0))
               (match fb with Aff (t, k) -> (t, k) | _ -> ([], 0))))
