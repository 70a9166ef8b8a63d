(** Static finish placement (paper §6).

    The dynamic placement yields, per NS-LCA instance, a set of S-DPST
    insertions; {!Valid.insertion_for} already mapped each to a static
    program location (block id + statement range).  This pass combines the
    placements demanded by {e all} dynamic NS-LCA instances into one
    consistent set of AST rewrites.

    The subtlety is {e static aliasing}: many dynamic instances share one
    static program point (every recursive call of mergesort demands a
    finish in the same block), and the per-instance optima can differ —
    an instance whose second half is a base case is fixed optimally by
    wrapping only the first async, but inserting that static finish would
    serialize {e every} instance.  A static finish must satisfy the most
    demanding instance, so:

    - placements demanded at the same static location by {e different}
      dynamic contexts whose ranges overlap (nested or crossing) are
      merged into their range {e union} — at least as much synchronization
      as each demand, and still ending before every demanding race's sink
      (re-verified by the driver's next detection iteration);
    - nested placements demanded {e together by one context} (an inner and
      an outer finish from a single FinishSet) are intentional structure
      and are preserved. *)

type merged = {
  placements : Mhj.Transform.placement list;  (** final, non-crossing *)
  n_demanded : int;  (** distinct placements demanded before merging *)
  n_merged : int;  (** union steps performed *)
}

let overlapping (a : Mhj.Transform.placement) (b : Mhj.Transform.placement) =
  a.bid = b.bid && a.lo <= b.hi && b.lo <= a.hi
  && not (Mhj.Transform.equal_placement a b)

let union (a : Mhj.Transform.placement) (b : Mhj.Transform.placement) =
  { a with Mhj.Transform.lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Wrapping exactly one statement that is itself a block is the same
   program as wrapping that block's whole contents; canonicalizing to the
   inner form lets demands produced at different climb levels (see
   {!Valid.insertion_for}) meet in one block and merge by union. *)
let rec canonicalize (scopes : Mhj.Scopecheck.t)
    (p : Mhj.Transform.placement) : Mhj.Transform.placement =
  if p.lo <> p.hi then p
  else
    match Hashtbl.find_opt scopes.Mhj.Scopecheck.blocks p.bid with
    | Some stmts when p.lo >= 0 && p.lo < Array.length stmts -> (
        match stmts.(p.lo).Mhj.Ast.s with
        | Mhj.Ast.Block b when b.stmts <> [] ->
            canonicalize scopes
              {
                Mhj.Transform.bid = b.bid;
                lo = 0;
                hi = List.length b.stmts - 1;
              }
        | _ -> p)
    | _ -> p

(** Merge raw placement demands into a consistent set.  Each demand is
    tagged with the dynamic context (NS-LCA id) that produced it. *)
let merge ~(scopes : Mhj.Scopecheck.t)
    (demands : (int * Mhj.Transform.placement) list) : merged =
  let demands =
    List.map (fun (ctx, p) -> (ctx, canonicalize scopes p)) demands
  in
  (* Pairs of distinct placements co-demanded by one context are protected
     from merging (they are deliberate nested structure). *)
  let protected_pairs = Hashtbl.create 16 in
  let key (p : Mhj.Transform.placement) = (p.bid, p.lo, p.hi) in
  (* each context's distinct demands: per-edge covers repeat one
     interval for many edges, and the pairs below are quadratic *)
  let by_ctx = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ctx, p) ->
      if not (Hashtbl.mem seen (ctx, key p)) then begin
        Hashtbl.add seen (ctx, key p) ();
        let cur = Option.value ~default:[] (Hashtbl.find_opt by_ctx ctx) in
        Hashtbl.replace by_ctx ctx (p :: cur)
      end)
    demands;
  Hashtbl.iter
    (fun _ctx ps ->
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if not (Mhj.Transform.equal_placement p q) then begin
                Hashtbl.replace protected_pairs (key p, key q) ();
                Hashtbl.replace protected_pairs (key q, key p) ()
              end)
            ps)
        ps)
    by_ctx;
  let protected_pair p q = Hashtbl.mem protected_pairs (key p, key q) in
  let dedup ps =
    List.fold_left
      (fun acc p ->
        if List.exists (Mhj.Transform.equal_placement p) acc then acc
        else p :: acc)
      [] ps
    |> List.rev
  in
  let initial = dedup (List.map snd demands) in
  let n_demanded = List.length initial in
  let n_merged = ref 0 in
  let rec fix ps =
    (* one watchdog poll per round: the job's deadline bounds the merge *)
    Rt.Watchdog.check ();
    let ps = dedup ps in
    let crossing (a : Mhj.Transform.placement) (b : Mhj.Transform.placement) =
      overlapping a b
      && not ((a.lo <= b.lo && b.hi <= a.hi) || (b.lo <= a.lo && a.hi <= b.hi))
    in
    (* Crossing pairs must merge regardless of protection (finish blocks
       cannot cross); nested pairs merge only when no single context
       demanded both. *)
    let rec find_overlap = function
      | [] -> None
      | p :: rest -> (
          match
            List.find_opt
              (fun q ->
                overlapping p q
                && (crossing p q || not (protected_pair p q)))
              rest
          with
          | Some q -> Some (p, q)
          | None -> find_overlap rest)
    in
    match find_overlap ps with
    | None -> ps
    | Some (p, q) ->
        incr n_merged;
        let u = union p q in
        (* The union inherits the protections of its constituents so that
           an outer deliberate wrapper is not merged away next round. *)
        Hashtbl.iter
          (fun (k1, k2) () ->
            if k1 = key p || k1 = key q then
              Hashtbl.replace protected_pairs (key u, k2) ();
            if k2 = key p || k2 = key q then
              Hashtbl.replace protected_pairs (k1, key u) ())
          (Hashtbl.copy protected_pairs);
        let ps =
          u
          :: List.filter
               (fun r ->
                 not
                   (Mhj.Transform.equal_placement r p
                   || Mhj.Transform.equal_placement r q))
               ps
        in
        fix ps
  in
  let placements = fix initial in
  { placements; n_demanded; n_merged = !n_merged }

(* Unions only grow ranges, so some final placement holds every
   canonical demand; nested structure makes the smallest one its own. *)
let absorbing ~scopes (m : merged) (p : Mhj.Transform.placement) =
  let c = canonicalize scopes p in
  let holds (q : Mhj.Transform.placement) =
    q.bid = c.bid && q.lo <= c.lo && c.hi <= q.hi
  in
  let narrower (a : Mhj.Transform.placement) (b : Mhj.Transform.placement) =
    if b.hi - b.lo < a.hi - a.lo then b else a
  in
  match List.filter holds m.placements with
  | [] -> c
  | q :: rest -> List.fold_left narrower q rest

(** Apply merged placements to the program. *)
let apply (p : Mhj.Ast.program) (m : merged) : Mhj.Ast.program =
  Mhj.Transform.insert_finishes p m.placements
