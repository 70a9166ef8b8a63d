(* See eval.mli. *)

open Mhj

exception Runtime_error of string * Loc.t

exception Out_of_fuel

exception Return_v of Value.t

let error loc fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, loc))) fmt

type frame = Value.t array

module type RUNTIME = sig
  type st
  type mark

  val charge : st -> int -> unit
  val stmt : st -> int -> unit
  val global : st -> int -> Monitor.access -> unit
  val cell : st -> int -> int -> Monitor.access -> unit
  val alloc : st -> int -> int
  val print : st -> string -> unit
  val exclusive : st -> (unit -> 'a) -> 'a
  val enter : st -> Sdpst.Node.kind -> sid:int -> bid:int -> mark
  val leave : st -> mark -> bid:int -> idx:int -> unit
  val async : st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit
  val finish : st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit
  val isolated : st -> sid:int -> bid:int -> (st -> frame -> unit) -> frame -> unit
end

type 'st program = {
  names : string array;
  globals : Value.t array;
  main_bid : int;
  init : 'st -> unit;
  main : 'st -> unit;
}

let final_globals (c : _ program) =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Array.to_list (Array.map2 (fun n v -> (n, v)) c.names c.globals))

(* ------------------------------------------------------------------ *)
(* Values and operators                                                *)
(* ------------------------------------------------------------------ *)

let as_int loc = function
  | Value.VInt n -> n
  | v -> error loc "expected int, got %a" Value.pp v

let as_bool loc = function
  | Value.VBool b -> b
  | v -> error loc "expected bool, got %a" Value.pp v

let as_arr loc = function
  | Value.VArr a -> a
  | v -> error loc "expected array, got %a" Value.pp v

let binop loc op (a : Value.t) (b : Value.t) : Value.t =
  let open Ast in
  match (op, a, b) with
  | Add, VInt x, VInt y -> VInt (x + y)
  | Sub, VInt x, VInt y -> VInt (x - y)
  | Mul, VInt x, VInt y -> VInt (x * y)
  | Div, VInt _, VInt 0 -> error loc "division by zero"
  | Div, VInt x, VInt y -> VInt (x / y)
  | Mod, VInt _, VInt 0 -> error loc "modulo by zero"
  | Mod, VInt x, VInt y -> VInt (x mod y)
  | Add, VFloat x, VFloat y -> VFloat (x +. y)
  | Sub, VFloat x, VFloat y -> VFloat (x -. y)
  | Mul, VFloat x, VFloat y -> VFloat (x *. y)
  | Div, VFloat x, VFloat y -> VFloat (x /. y)
  | Eq, VInt x, VInt y -> VBool (x = y)
  | Ne, VInt x, VInt y -> VBool (x <> y)
  | Lt, VInt x, VInt y -> VBool (x < y)
  | Le, VInt x, VInt y -> VBool (x <= y)
  | Gt, VInt x, VInt y -> VBool (x > y)
  | Ge, VInt x, VInt y -> VBool (x >= y)
  | Eq, VFloat x, VFloat y -> VBool (x = y)
  | Ne, VFloat x, VFloat y -> VBool (x <> y)
  | Lt, VFloat x, VFloat y -> VBool (x < y)
  | Le, VFloat x, VFloat y -> VBool (x <= y)
  | Gt, VFloat x, VFloat y -> VBool (x > y)
  | Ge, VFloat x, VFloat y -> VBool (x >= y)
  | Eq, VBool x, VBool y -> VBool (x = y)
  | Ne, VBool x, VBool y -> VBool (x <> y)
  | _ ->
      error loc "operator '%s' applied to %a and %a" (string_of_binop op)
        Value.pp a Value.pp b

let unbound loc x = error loc "unbound variable '%s'" x

let check_index loc prefix (a : Value.arr) i =
  if i < 0 || i >= Array.length a.cells then
    error loc "%sindex %d out of bounds [0..%d)" prefix i (Array.length a.cells)

let sblock = Sdpst.Node.Scope Sdpst.Node.Sblock

(* ------------------------------------------------------------------ *)
(* The compiler                                                        *)
(* ------------------------------------------------------------------ *)

module Make (R : RUNTIME) = struct
  type code = R.st -> frame -> Value.t

  type body = R.st -> frame -> unit

  (* A user function: filled in once every function is known, so calls
     (and recursion) can be compiled before their callee. *)
  type fn = { kind : Sdpst.Node.kind; fbid : int; mutable size : int;
              mutable run : body }

  let rec alloc st loc base dims : Value.t =
    match dims with
    | [] -> assert false
    | n :: rest ->
        if n < 0 then error loc "negative array dimension %d" n;
        R.charge st (n * Cost.array_cell_alloc);
        let aid = R.alloc st n in
        let cells =
          if rest = [] then Array.make n (Value.zero base)
          else Array.init n (fun _ -> alloc st loc base rest)
        in
        VArr { aid; cells }

  let builtin st loc name (args : Value.t list) : Value.t =
    R.charge st Cost.builtin_overhead;
    match (name, args) with
    | "alen", [ VArr a ] -> VInt (Array.length a.cells)
    | "print", [ v ] ->
        R.print st (Fmt.str "%a" Value.pp v);
        VUnit
    | "work", [ VInt n ] ->
        if n < 0 then error loc "work(%d): negative amount" n;
        R.charge st n;
        VUnit
    | "cas", [ VArr a; VInt i; VInt old_v; VInt new_v ] ->
        (* Models HJ's atomic claim; exempt from race detection (DESIGN.md). *)
        check_index loc "cas: " a i;
        VBool
          (R.exclusive st (fun () ->
               a.cells.(i) = VInt old_v
               && (a.cells.(i) <- VInt new_v;
                   true)))
    | "float", [ VInt n ] -> VFloat (float_of_int n)
    | "int", [ VFloat f ] -> VInt (int_of_float f)
    | "sqrt", [ VFloat f ] -> VFloat (sqrt f)
    | "sin", [ VFloat f ] -> VFloat (sin f)
    | "cos", [ VFloat f ] -> VFloat (cos f)
    | "fabs", [ VFloat f ] -> VFloat (abs_float f)
    | "pow", [ VFloat a; VFloat b ] -> VFloat (a ** b)
    | "log", [ VFloat f ] -> VFloat (log f)
    | "exp", [ VFloat f ] -> VFloat (exp f)
    | _ ->
        error loc "builtin '%s' applied to (%a)" name
          Fmt.(list ~sep:comma Value.pp)
          args

  (* Store [rhs] through the index path of an [a[i]..[j] = rhs]. *)
  let rec store st fr loc rhs (v : Value.t) = function
    | [] -> assert false
    | (iloc, ci) :: rest ->
        let arr = as_arr loc v in
        let i = as_int iloc (ci st fr) in
        check_index loc "" arr i;
        if rest = [] then begin
          let rv = rhs st fr in
          R.cell st arr.aid i Monitor.Write;
          arr.cells.(i) <- rv
        end
        else begin
          R.cell st arr.aid i Monitor.Read;
          store st fr loc rhs arr.cells.(i) rest
        end

  let compile (p : Ast.program) : R.st program =
    if not (Normalize.is_normalized p) then
      error Loc.dummy "program must be normalized (use Front.compile)";
    let main_bid =
      match Ast.find_func p "main" with
      | Some f -> f.body.bid
      | None -> error Loc.dummy "program has no 'main' function"
    in
    let r = Resolve.create p in
    let names = Array.of_list (List.map (fun (g : Ast.global) -> g.gname) p.globals) in
    let globals = Array.make (Array.length names) Value.VUnit in
    (* Globals become visible as their initializers complete, exactly as
       if they were bound one by one. *)
    let ready = ref 0 in
    let fns = Hashtbl.create 16 in
    List.iter
      (fun (f : Ast.func) ->
        Hashtbl.replace fns f.fname
          { kind = Sdpst.Node.Scope (Sdpst.Node.Scall f.fname);
            fbid = f.body.bid; size = 0; run = (fun _ _ -> ()) })
      p.funcs;
    (* How [x] reads, without the expression-node charge. *)
    let read loc x : code =
      match Resolve.lookup r x with
      | Local s -> fun _ fr -> Array.unsafe_get fr s
      | Global g ->
          fun st _ ->
            if g >= !ready then unbound loc x;
            R.global st g Monitor.Read;
            Array.unsafe_get globals g
      | Unbound -> fun _ _ -> unbound loc x
    in
    (* [at] is the (block, index) of the enclosing statement: the cursor
       a call made from this expression restores on return. *)
    let rec expr at (e : Ast.expr) : code =
      let loc = e.eloc in
      let node (f : code) : code = fun st fr -> R.charge st Cost.expr_node; f st fr in
      let const (v : Value.t) = node (fun _ _ -> v) in
      match e.e with
      | Int n -> const (VInt n)
      | Float f -> const (VFloat f)
      | Bool b -> const (VBool b)
      | Str s -> const (VStr s)
      | Var x -> (
          match Resolve.lookup r x with
          | Local s ->
              fun st fr ->
                R.charge st Cost.expr_node;
                Array.unsafe_get fr s
          | _ -> node (read loc x))
      | Bin (((And | Or) as op), a, b) ->
          let short = op = Or and al = a.eloc and a = expr at a in
          let b = expr at b in
          node (fun st fr ->
              if as_bool al (a st fr) = short then VBool short else b st fr)
      | Bin (op, a, b) ->
          let a = expr at a in
          let b = expr at b in
          fun st fr ->
            R.charge st Cost.expr_node;
            let va = a st fr in
            binop loc op va (b st fr)
      | Un (Neg, a) ->
          let a = expr at a in
          node (fun st fr ->
              match a st fr with
              | VInt n -> VInt (-n)
              | VFloat f -> VFloat (-.f)
              | v -> error loc "unary '-' applied to %a" Value.pp v)
      | Un (Not, a) ->
          let al = a.eloc and a = expr at a in
          node (fun st fr -> VBool (not (as_bool al (a st fr))))
      | Idx (a, i) ->
          let al = a.eloc and a = expr at a in
          let il = i.eloc and i = expr at i in
          fun st fr ->
            R.charge st Cost.expr_node;
            let arr = as_arr al (a st fr) in
            let i = as_int il (i st fr) in
            check_index loc "" arr i;
            R.cell st arr.aid i Monitor.Read;
            Array.unsafe_get arr.cells i
      | NewArr (base, dims) ->
          let dims = List.map (fun (d : Ast.expr) -> (d.eloc, expr at d)) dims in
          node (fun st fr ->
              alloc st loc base (List.map (fun (l, d) -> as_int l (d st fr)) dims))
      | Call (name, args) -> (
          let args = List.map (expr at) args in
          let eval_args st fr = List.map (fun a -> a st fr) args in
          match Hashtbl.find_opt fns name with
          | _ when Builtins.is_builtin name ->
              node (fun st fr -> builtin st loc name (eval_args st fr))
          | None ->
              node (fun st fr ->
                  ignore (eval_args st fr);
                  error loc "unknown function '%s'" name)
          | Some f ->
              let args = Array.of_list args and cb, ck = at in
              node (fun st fr ->
                  (* the arguments land in the callee's parameter slots *)
                  let callee = Array.make (max f.size (Array.length args)) Value.VUnit in
                  for j = 0 to Array.length args - 1 do
                    Array.unsafe_set callee j ((Array.unsafe_get args j) st fr)
                  done;
                  R.charge st Cost.call_overhead;
                  let m = R.enter st f.kind ~sid:(-1) ~bid:f.fbid in
                  let v =
                    match f.run st callee with
                    | () -> Value.VUnit
                    | exception Return_v v -> v
                  in
                  R.leave st m ~bid:cb ~idx:ck;
                  v))
    (* A block's statements, each preceded by its boundary hook and, for
       a non-structural statement, the statement charge. *)
    and seq (b : Ast.block) : body =
      let stmts =
        Array.of_list
          (List.mapi
             (fun k (s : Ast.stmt) ->
               let plain =
                 match s.s with
                 | Async _ | Finish _ | Isolated _ | Block _ -> false
                 | _ -> true
               in
               (plain, stmt (b.bid, k) s))
             b.stmts)
      in
      fun st fr ->
        for k = 0 to Array.length stmts - 1 do
          let plain, s = Array.unsafe_get stmts k in
          R.stmt st k;
          if plain then R.charge st Cost.stmt;
          s st fr
        done
    (* The statements of a compound statement's body block, in a nested
       lexical scope; [pre] declares names scoped to the body. *)
    and body ?(pre = fun () -> ()) (s : Ast.stmt) =
      match s.s with
      | Block b -> block ~pre b
      | _ -> error s.sloc "program not normalized; compile with Front.compile"
    and block ?(pre = fun () -> ()) b =
      (b.bid, Resolve.scope r (fun () -> pre (); seq b))
    (* A branch or loop body (or a nested block statement): a scope node
       around the block's statements. *)
    and scoped at (s : Ast.stmt) : body =
      let bid, run = body s in
      let cb, ck = at and sid = s.sid in
      fun st fr ->
        let m = R.enter st sblock ~sid ~bid in
        run st fr;
        R.leave st m ~bid:cb ~idx:ck
    and stmt at (s : Ast.stmt) : body =
      let loc = s.sloc in
      match s.s with
      | Decl (_, x, _, init) ->
          let init = expr at init in
          let slot = Resolve.declare r x in
          fun st fr -> Array.unsafe_set fr slot (init st fr)
      | Assign (x, [], rhs) -> (
          let rhs = expr at rhs in
          match Resolve.lookup r x with
          | Local slot -> fun st fr -> Array.unsafe_set fr slot (rhs st fr)
          | Global g ->
              fun st fr ->
                let v = rhs st fr in
                if g >= !ready then unbound loc x;
                R.global st g Monitor.Write;
                Array.unsafe_set globals g v
          | Unbound ->
              fun st fr ->
                ignore (rhs st fr);
                unbound loc x)
      | Assign (x, path, rhs) ->
          let base = read loc x in
          let path = List.map (fun (i : Ast.expr) -> (i.eloc, expr at i)) path in
          let rhs = expr at rhs in
          fun st fr -> store st fr loc rhs (base st fr) path
      | If (c, a, b) ->
          let cl = c.eloc and c = expr at c in
          let a = scoped at a in
          let b = match b with Some b -> scoped at b | None -> fun _ _ -> () in
          fun st fr -> if as_bool cl (c st fr) then a st fr else b st fr
      | While (c, b) ->
          let cl = c.eloc and c = expr at c in
          let b = scoped at b in
          fun st fr ->
            while as_bool cl (c st fr) do
              b st fr
            done
      | For (iv, lo, hi, by, b) ->
          let lol = lo.eloc and lo = expr at lo in
          let hil = hi.eloc and hi = expr at hi in
          let by = Option.map (fun (e : Ast.expr) -> (e.eloc, expr at e)) by in
          (* the induction variable lives in the iteration's scope *)
          let slot = ref 0 in
          let bid, run = body b ~pre:(fun () -> slot := Resolve.declare r iv) in
          let slot = !slot and cb, ck = at and sid = b.sid in
          fun st fr ->
            let lo = as_int lol (lo st fr) in
            let hi = as_int hil (hi st fr) in
            let step =
              match by with
              | None -> 1
              | Some (l, e) -> (
                  match as_int l (e st fr) with
                  | 0 -> error loc "for step must be non-zero"
                  | s -> s)
            in
            (* No per-iteration overhead charge: it would open a step
               inside the iteration scope even when the body is a lone
               async, and that step would block loop-wide finish
               placements.  For-loops are bounded, so fuel accounting
               inside the body suffices. *)
            let i = ref lo in
            while (if step > 0 then !i <= hi else !i >= hi) do
              let m = R.enter st sblock ~sid ~bid in
              Array.unsafe_set fr slot (Value.VInt !i);
              run st fr;
              R.leave st m ~bid:cb ~idx:ck;
              i := !i + step
            done
      | Return None -> fun _ _ -> raise (Return_v VUnit)
      | Return (Some e) ->
          let e = expr at e in
          fun st fr -> raise (Return_v (e st fr))
      | Async b | Finish b | Isolated b ->
          let hook =
            match s.s with Async _ -> R.async | Finish _ -> R.finish | _ -> R.isolated
          in
          let bid, run = body b and sid = s.sid in
          fun st fr -> hook st ~sid ~bid run fr
      | Block _ -> scoped at s
      | Expr e ->
          let e = expr at e in
          fun st fr -> ignore (e st fr)
    in
    (* Initializers run before main, at main's block cursor. *)
    let inits =
      List.map
        (fun (g : Ast.global) ->
          fst (Resolve.func r [] (fun () -> expr (main_bid, 0) g.ginit)))
        p.globals
    in
    List.iter
      (fun (f : Ast.func) ->
        let fn = Hashtbl.find fns f.fname in
        let run, size =
          Resolve.func r (List.map fst f.params) (fun () -> snd (block f.body))
        in
        fn.run <- run;
        fn.size <- size)
      p.funcs;
    let init st =
      List.iteri
        (fun i c ->
          globals.(i) <- c st [||];
          ready := i + 1)
        inits
    in
    let main st =
      let f = Hashtbl.find fns "main" in
      try f.run st (Array.make f.size Value.VUnit) with Return_v _ -> ()
    in
    { names; globals; main_bid; init; main }
end
