(** Interprocedural static may-happen-in-parallel analysis (see mhp.mli
    for the L/E-set semantics and the per-construct pairing rules). *)

open Mhj
module IntSet = Set.Make (Int)

type t = {
  pairs : (int * int, Affine.ctx list) Hashtbl.t;
      (** normalized (min sid, max sid) -> structural emission contexts *)
  redundant_finishes : (int * Loc.t) list;
  l_of_func : (string, IntSet.t) Hashtbl.t;
  e_of_func : (string, IntSet.t) Hashtbl.t;
}

(* Analysis context: during the summary fixpoint [record] is off and only
   the per-function L/E summaries evolve; the final pass re-walks every
   function with [record] on, emitting MHP pairs and finish facts against
   the converged summaries. *)
type ctx = {
  summary : Summary.t;
  mutable record : bool;
  prs : (int * int, Affine.ctx list) Hashtbl.t;
  mutable redundant : (int * Loc.t) list;
  lf : (string, IntSet.t) Hashtbl.t;
  ef : (string, IntSet.t) Hashtbl.t;
  mutable changed : bool;
}

let get tbl k = Option.value ~default:IntSet.empty (Hashtbl.find_opt tbl k)

(* Emit E x L with the context of the structural meet point covering the
   overlap: [cinfo.shared] holds the For sids whose counters are equal in
   the two overlapping instances, [cinfo.loop = Some l] that they belong
   to distinct iterations of one execution of [l] (see affine.mli).  A
   pair may be emitted at several meet points; refinement must disprove
   every recorded context. *)
let add_pairs ctx cinfo es ls =
  if ctx.record && not (IntSet.is_empty es) then
    IntSet.iter
      (fun a ->
        IntSet.iter
          (fun b ->
            let key = if a <= b then (a, b) else (b, a) in
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt ctx.prs key)
            in
            if not (List.exists (Affine.ctx_equal cinfo) cur) then
              Hashtbl.replace ctx.prs key (cinfo :: cur))
          ls)
      es

(* L(s): every sid that may execute during s, transitively through calls
   and into async bodies (including s itself).  E(s): sids that may still
   be executing after s completes locally — the escaping asyncs.  Pairs
   are emitted exactly where an escape meets later-or-concurrent work:
   block suffixes, loop re-iterations, and within a statement's own
   evaluation. *)
let rec stmt_le ctx ~encl (st : Ast.stmt) : IntSet.t * IntSet.t =
  let callees = Summary.calls ctx.summary st.Ast.sid in
  let call_l =
    List.fold_left
      (fun acc f -> IntSet.union acc (get ctx.lf f))
      IntSet.empty callees
  and call_e =
    List.fold_left
      (fun acc f -> IntSet.union acc (get ctx.ef f))
      IntSet.empty callees
  in
  let self = IntSet.singleton st.Ast.sid in
  (* overlaps emitted here happen within one instance of this statement,
     so the two sides agree on every enclosing For counter *)
  let here = { Affine.loop = None; shared = encl } in
  match st.Ast.s with
  | Decl _ | Assign _ | Return _ | Expr _ ->
      let l = IntSet.union self call_l in
      (* an async escaping one call runs in parallel with the rest of the
         statement's evaluation (later calls, the statement's accesses) *)
      add_pairs ctx here call_e l;
      (l, call_e)
  | If (_, a, b) ->
      let la, ea = stmt_le ctx ~encl a in
      let lb, eb =
        match b with
        | Some b -> stmt_le ctx ~encl b
        | None -> (IntSet.empty, IntSet.empty)
      in
      let branches = IntSet.union la lb in
      (* asyncs escaping the condition's calls overlap whichever branch
         runs (and the If statement's own accesses) *)
      add_pairs ctx here call_e (IntSet.union self branches);
      ( IntSet.union self (IntSet.union call_l branches),
        IntSet.union call_e (IntSet.union ea eb) )
  | While (_, body) ->
      let lb, eb = stmt_le ctx ~encl body in
      let l = IntSet.union self (IntSet.union call_l lb) in
      let e = IntSet.union call_e eb in
      (* anything escaping the condition or one iteration may run in
         parallel with every later iteration — including another
         instance of itself *)
      add_pairs ctx here e l;
      (l, e)
  | For (_, _, _, _, body) ->
      let encl_body = Affine.IntSet.add st.Ast.sid encl in
      let lb, eb = stmt_le ctx ~encl:encl_body body in
      let l = IntSet.union self (IntSet.union call_l lb) in
      let e = IntSet.union call_e eb in
      (* asyncs escaping the bounds evaluation overlap the whole loop
         within one instance of the For statement... *)
      add_pairs ctx here call_e l;
      (* ...while body escapes meet later iterations: the two instances
         come from distinct iterations of one execution of this loop, so
         their counter values differ by a non-zero multiple of the step *)
      add_pairs ctx
        { Affine.loop = Some st.Ast.sid; shared = encl }
        eb l;
      (l, e)
  | Async body ->
      let lb, _ = stmt_le ctx ~encl body in
      (* the whole body escapes; no self-pairing here — a single async
         instance runs its own body sequentially *)
      let l = IntSet.union self lb in
      (l, l)
  | Finish body ->
      let lb, eb = stmt_le ctx ~encl body in
      if ctx.record && IntSet.is_empty eb then
        ctx.redundant <- (st.Ast.sid, st.Ast.sloc) :: ctx.redundant;
      (* the join: nothing escapes a finish *)
      (IntSet.union self lb, IntSet.empty)
  | Isolated body ->
      (* No tasks inside (enforced by the type checker): behaves like a
         plain nested statement for happens-in-parallel purposes.  The
         mutual exclusion between isolated instances is not modeled here —
         MHP stays an over-approximation, which keeps pruning sound. *)
      let lb, eb = stmt_le ctx ~encl body in
      add_pairs ctx here call_e (IntSet.union self lb);
      (IntSet.union self (IntSet.union call_l lb), IntSet.union call_e eb)
  | Block blk ->
      let lb, eb = block_le ctx ~encl blk in
      (IntSet.union self lb, eb)

and block_le ctx ~encl (blk : Ast.block) : IntSet.t * IntSet.t =
  let les = List.map (stmt_le ctx ~encl) blk.Ast.stmts in
  (* suffix rule: an async escaping statement i runs in parallel with
     everything statements i+1.. may execute — within one instance of
     this block, so enclosing counters are shared *)
  let here = { Affine.loop = None; shared = encl } in
  ignore
    (List.fold_right
       (fun (l, e) suffix ->
         add_pairs ctx here e suffix;
         IntSet.union l suffix)
       les IntSet.empty);
  List.fold_left
    (fun (la, ea) (l, e) -> (IntSet.union la l, IntSet.union ea e))
    (IntSet.empty, IntSet.empty)
    les

let analyze (prog : Ast.program) (summary : Summary.t) : t =
  let ctx =
    {
      summary;
      record = false;
      prs = Hashtbl.create 256;
      redundant = [];
      lf = Hashtbl.create 16;
      ef = Hashtbl.create 16;
      changed = true;
    }
  in
  (* per-function (L, E) summary fixpoint; sets only grow and are bounded
     by the program's sid set, so this terminates (recursion included) *)
  while ctx.changed do
    ctx.changed <- false;
    List.iter
      (fun (fn : Ast.func) ->
        let l, e = block_le ctx ~encl:Affine.IntSet.empty fn.body in
        let old_l = get ctx.lf fn.fname and old_e = get ctx.ef fn.fname in
        if not (IntSet.subset l old_l) then begin
          Hashtbl.replace ctx.lf fn.fname (IntSet.union l old_l);
          ctx.changed <- true
        end;
        if not (IntSet.subset e old_e) then begin
          Hashtbl.replace ctx.ef fn.fname (IntSet.union e old_e);
          ctx.changed <- true
        end)
      prog.funcs
  done;
  ctx.record <- true;
  List.iter
    (fun (fn : Ast.func) ->
      ignore (block_le ctx ~encl:Affine.IntSet.empty fn.body))
    prog.funcs;
  {
    pairs = ctx.prs;
    redundant_finishes = List.rev ctx.redundant;
    l_of_func = ctx.lf;
    e_of_func = ctx.ef;
  }

let mhp t a b = Hashtbl.mem t.pairs (if a <= b then (a, b) else (b, a))

let contexts t a b =
  Option.value ~default:[]
    (Hashtbl.find_opt t.pairs (if a <= b then (a, b) else (b, a)))

let pairs t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.pairs [] |> List.sort compare

let redundant_finishes t = t.redundant_finishes

let l_of_func t f = get t.l_of_func f

let e_of_func t f = get t.e_of_func f
