(** Static discharge of races protected by [isolated] sections.

    The detectors are oblivious to [isolated]: its body executes as a
    plain scope, so a conflicting pair of section instances still
    surfaces as a race of the S-DPST.  Mutual exclusion is then applied
    here, statically: a race whose {e both} endpoints originate from
    blocks lexically inside some [isolated] statement can never manifest
    — the two sections are serialized at runtime.

    The block set is purely lexical: accesses reached through a function
    call inside a section are {e not} covered (the type checker forbids
    user calls inside [isolated], so the set is in fact exact). *)

module IntSet = Set.Make (Int)

(** Block ids lexically enclosed in an [isolated] statement. *)
let bids (p : Mhj.Ast.program) : IntSet.t =
  let acc = ref IntSet.empty in
  let rec inside (st : Mhj.Ast.stmt) =
    match st.s with
    | Mhj.Ast.Decl _ | Assign _ | Return _ | Expr _ -> ()
    | If (_, a, b) ->
        inside a;
        Option.iter inside b
    | While (_, b) | For (_, _, _, _, b) | Async b | Finish b | Isolated b ->
        inside b
    | Block b ->
        acc := IntSet.add b.bid !acc;
        List.iter inside b.stmts
  in
  Mhj.Ast.iter_stmts
    (fun st -> match st.s with Mhj.Ast.Isolated b -> inside b | _ -> ())
    p;
  !acc

(** Are both steps inside [isolated] sections?  A race between them is
    discharged by mutual exclusion; the test reads only the endpoints'
    origin blocks, so it applies to step pairs as well as races. *)
let covers (iso : IntSet.t) tree (src : Sdpst.Node.t) (sink : Sdpst.Node.t) =
  IntSet.mem (Sdpst.Node.origin_bid tree src) iso
  && IntSet.mem (Sdpst.Node.origin_bid tree sink) iso

(** The races surviving mutual-exclusion discharge: the records the
    printers show.  Every decision reads the pairs of {!partition}. *)
let suppress (p : Mhj.Ast.program) (races : Espbags.Race.t list) :
    Espbags.Race.t list =
  if Mhj.Ast.count_isolated p = 0 then races
  else begin
    let iso = bids p in
    List.filter
      (fun (r : Espbags.Race.t) -> not (covers iso r.tree r.src r.sink))
      races
  end

(** A run's step pairs split by mutual-exclusion discharge: the surviving
    pairs and the discharged ones, each in first-seen order with its
    multiplicity, so [n_races] counts race reports. *)
let partition (p : Mhj.Ast.program) (pairs : Espbags.Race.Pairs.t) :
    Espbags.Race.Pairs.t * Espbags.Race.Pairs.t =
  let module P = Espbags.Race.Pairs in
  if Mhj.Ast.count_isolated p = 0 then (pairs, P.filter (fun _ -> false) pairs)
  else begin
    let iso = bids p in
    let tree = P.tree pairs in
    let covered k = covers iso tree (P.src_id pairs k) (P.sink_id pairs k) in
    (P.filter (fun k -> not (covered k)) pairs, P.filter covered pairs)
  end

(* ------------------------------------------------------------------ *)
(* Wrappability of a statement range                                   *)
(* ------------------------------------------------------------------ *)

let rec expr_leaf (e : Mhj.Ast.expr) : bool =
  match e.e with
  | Mhj.Ast.Int _ | Float _ | Bool _ | Str _ | Var _ -> true
  | Bin (_, a, b) -> expr_leaf a && expr_leaf b
  | Un (_, a) -> expr_leaf a
  | Idx (a, i) -> expr_leaf a && expr_leaf i
  | NewArr (_, dims) -> List.for_all expr_leaf dims
  | Call (name, args) ->
      Mhj.Builtins.is_builtin name && List.for_all expr_leaf args

(** May this statement live inside an [isolated] section?  Mirrors the
    type checker's rule: no task constructs and no user-function calls
    (which could transitively spawn, or touch memory outside the
    lexical block set). *)
let rec wrappable_stmt (st : Mhj.Ast.stmt) : bool =
  match st.s with
  | Mhj.Ast.Async _ | Finish _ | Isolated _ -> false
  | Decl (_, _, _, init) -> expr_leaf init
  | Assign (_, path, rhs) -> List.for_all expr_leaf path && expr_leaf rhs
  | Return None -> true
  | Return (Some e) | Expr e -> expr_leaf e
  | If (c, a, b) ->
      expr_leaf c && wrappable_stmt a
      && Option.fold ~none:true ~some:wrappable_stmt b
  | While (c, b) -> expr_leaf c && wrappable_stmt b
  | For (_, lo, hi, by, b) ->
      expr_leaf lo && expr_leaf hi
      && Option.fold ~none:true ~some:expr_leaf by
      && wrappable_stmt b
  | Block b -> List.for_all wrappable_stmt b.stmts
