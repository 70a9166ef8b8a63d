(** Type checker for Mini-HJ.

    Besides conventional typing, this pass enforces the structured-parallel
    well-formedness rules the repair algorithms rely on:

    - an [async] body may read outer locals only if they are immutable
      ([val]) — the HJ "captured variables are final" rule — and may never
      assign to an outer local.  Shared mutable state is therefore exactly
      the set of globals and array cells, which is what the race detector
      monitors;
    - [return] may not cross an [async] boundary;
    - a [for] induction variable is immutable in the loop body. *)

open Ast

exception Error of string * Loc.t

let error loc fmt = Fmt.kstr (fun m -> raise (Error (m, loc))) fmt

type binding = { bty : ty; bmut : mutability; basync : int }
(** [basync] is the async-nesting depth at the point of declaration; a
    reference from a deeper async depth crosses a task boundary. *)

type env = {
  globals : (string, ty) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  mutable scopes : (string * binding) list list;
  mutable async_depth : int;
}

let lookup_local env x =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
        match List.assoc_opt x frame with
        | Some b -> Some b
        | None -> go rest)
  in
  go env.scopes

let declare env loc x b =
  (match env.scopes with
  | frame :: _ when List.mem_assoc x frame ->
      error loc "variable '%s' is already declared in this block" x
  | _ -> ());
  match env.scopes with
  | frame :: rest -> env.scopes <- ((x, b) :: frame) :: rest
  | [] -> env.scopes <- [ [ (x, b) ] ]

let in_scope env f =
  env.scopes <- [] :: env.scopes;
  let finally () = env.scopes <- List.tl env.scopes in
  Fun.protect ~finally f

let is_numeric = function TInt | TFloat -> true | _ -> false

let rec type_expr env (e : expr) : ty =
  match e.e with
  | Int _ -> TInt
  | Float _ -> TFloat
  | Bool _ -> TBool
  | Str _ -> TStr
  | Var x -> (
      match lookup_local env x with
      | Some b ->
          if b.basync < env.async_depth && b.bmut = Mut then
            error e.eloc
              "mutable local '%s' cannot be referenced inside an async \
               (declare it with 'val', or use an array/global)"
              x;
          b.bty
      | None -> (
          match Hashtbl.find_opt env.globals x with
          | Some ty -> ty
          | None -> error e.eloc "unbound variable '%s'" x))
  | Bin (op, a, b) -> (
      let ta = type_expr env a in
      let tb = type_expr env b in
      let same () =
        if not (equal_ty ta tb) then
          error e.eloc "operator '%s' applied to %s and %s"
            (string_of_binop op) (string_of_ty ta) (string_of_ty tb)
      in
      match op with
      | Add | Sub | Mul | Div | Mod ->
          same ();
          if not (is_numeric ta) then
            error e.eloc "operator '%s' expects int or float operands"
              (string_of_binop op);
          if op = Mod && ta <> TInt then
            error e.eloc "operator '%%' expects int operands";
          ta
      | Lt | Le | Gt | Ge ->
          same ();
          if not (is_numeric ta) then
            error e.eloc "comparison expects int or float operands";
          TBool
      | Eq | Ne ->
          same ();
          (match ta with
          | TInt | TFloat | TBool -> ()
          | _ -> error e.eloc "equality is defined on int, float and bool");
          TBool
      | And | Or ->
          same ();
          if ta <> TBool then
            error e.eloc "operator '%s' expects bool operands"
              (string_of_binop op);
          TBool)
  | Un (Neg, a) ->
      let ta = type_expr env a in
      if not (is_numeric ta) then error e.eloc "unary '-' expects int or float";
      ta
  | Un (Not, a) ->
      let ta = type_expr env a in
      if ta <> TBool then error e.eloc "unary '!' expects bool";
      TBool
  | Idx (a, i) -> (
      let ta = type_expr env a in
      let ti = type_expr env i in
      if ti <> TInt then error i.eloc "array index must be int";
      match ta with
      | TArr t -> t
      | t -> error e.eloc "indexing a non-array value of type %s"
               (string_of_ty t))
  | NewArr (base, dims) ->
      List.iter
        (fun d ->
          if type_expr env d <> TInt then
            error d.eloc "array dimension must be int")
        dims;
      List.fold_left (fun t _ -> TArr t) base dims
  | Call (name, args) -> type_call env e.eloc name args

and type_call env loc name args : ty =
  let targs = List.map (fun a -> (type_expr env a, a.eloc)) args in
  match name with
  | "alen" -> (
      match targs with
      | [ (TArr _, _) ] -> TInt
      | [ (t, l) ] -> error l "alen expects an array, got %s" (string_of_ty t)
      | _ -> error loc "alen expects exactly one argument")
  | "print" -> (
      match targs with
      | [ ((TInt | TFloat | TBool | TStr), _) ] -> TUnit
      | [ (t, l) ] -> error l "print cannot print a value of type %s"
                        (string_of_ty t)
      | _ -> error loc "print expects exactly one argument")
  | _ -> (
      match Builtins.find name with
      | Some sg ->
          if List.length targs <> List.length sg.args then
            error loc "builtin '%s' expects %d argument(s), got %d" name
              (List.length sg.args) (List.length targs);
          List.iter2
            (fun expected (got, l) ->
              if not (equal_ty expected got) then
                error l "builtin '%s': expected %s, got %s" name
                  (string_of_ty expected) (string_of_ty got))
            sg.args targs;
          sg.ret
      | None -> (
          match Hashtbl.find_opt env.funcs name with
          | None -> error loc "unknown function '%s'" name
          | Some f ->
              if List.length targs <> List.length f.params then
                error loc "function '%s' expects %d argument(s), got %d" name
                  (List.length f.params) (List.length targs);
              List.iter2
                (fun (px, pty) (got, l) ->
                  if not (equal_ty pty got) then
                    error l "function '%s', parameter '%s': expected %s, got %s"
                      name px (string_of_ty pty) (string_of_ty got))
                f.params targs;
              f.ret))

let rec check_stmt env ~(ret : ty) (st : stmt) : unit =
  match st.s with
  | Decl (m, x, ty, init) ->
      (match ty with
      | TStr -> error st.sloc "variables of type str are not allowed"
      | _ -> ());
      let ti = type_expr env init in
      if not (equal_ty ti ty) then
        error st.sloc "initializer of '%s' has type %s but was declared %s" x
          (string_of_ty ti) (string_of_ty ty);
      declare env st.sloc x { bty = ty; bmut = m; basync = env.async_depth }
  | Assign (x, path, rhs) ->
      let bty, crosses_async =
        match lookup_local env x with
        | Some b ->
            if path = [] then begin
              if b.bmut = Immut then
                error st.sloc "cannot assign to immutable 'val %s'" x;
              if b.basync < env.async_depth then
                error st.sloc
                  "cannot assign to outer local '%s' inside an async" x
            end
            else if b.basync < env.async_depth && b.bmut = Mut then
              error st.sloc
                "mutable local '%s' cannot be referenced inside an async" x;
            (b.bty, false)
        | None -> (
            match Hashtbl.find_opt env.globals x with
            | Some ty -> (ty, false)
            | None -> error st.sloc "unbound variable '%s'" x)
      in
      ignore crosses_async;
      let cell_ty =
        List.fold_left
          (fun t idx ->
            let ti = type_expr env idx in
            if ti <> TInt then error idx.eloc "array index must be int";
            match t with
            | TArr t -> t
            | t ->
                error idx.eloc "indexing a non-array value of type %s"
                  (string_of_ty t))
          bty path
      in
      let tr = type_expr env rhs in
      if not (equal_ty tr cell_ty) then
        error st.sloc "assignment to '%s': expected %s, got %s" x
          (string_of_ty cell_ty) (string_of_ty tr)
  | If (c, a, b) ->
      if type_expr env c <> TBool then error c.eloc "if condition must be bool";
      in_scope env (fun () -> check_stmt env ~ret a);
      Option.iter (fun b -> in_scope env (fun () -> check_stmt env ~ret b)) b
  | While (c, body) ->
      if type_expr env c <> TBool then
        error c.eloc "while condition must be bool";
      in_scope env (fun () -> check_stmt env ~ret body)
  | For (i, lo, hi, by, body) ->
      if type_expr env lo <> TInt then error lo.eloc "for bounds must be int";
      if type_expr env hi <> TInt then error hi.eloc "for bounds must be int";
      Option.iter
        (fun e ->
          if type_expr env e <> TInt then error e.eloc "for step must be int")
        by;
      in_scope env (fun () ->
          declare env st.sloc i
            { bty = TInt; bmut = Immut; basync = env.async_depth };
          check_stmt env ~ret body)
  | Return eo ->
      if env.async_depth > 0 then
        error st.sloc "return may not cross an async boundary";
      let t = match eo with None -> TUnit | Some e -> type_expr env e in
      if not (equal_ty t ret) then
        error st.sloc "return type mismatch: expected %s, got %s"
          (string_of_ty ret) (string_of_ty t)
  | Async body ->
      env.async_depth <- env.async_depth + 1;
      let finally () = env.async_depth <- env.async_depth - 1 in
      Fun.protect ~finally (fun () ->
          in_scope env (fun () -> check_stmt env ~ret body))
  | Finish body -> in_scope env (fun () -> check_stmt env ~ret body)
  | Isolated body ->
      (* Critical sections are strictly sequential: spawning inside one
         could deadlock against the section's mutual exclusion, and a
         join would serialize unrelated tasks behind the lock. *)
      let rec no_calls (e : expr) =
        (match e.e with
        | Call (name, _) when not (Builtins.is_builtin name) ->
            (* A user function could transitively spawn (breaking the
               section's atomicity); builtins are leaf operations. *)
            error e.eloc
              "call to user function '%s' is not allowed inside isolated" name
        | _ -> ());
        List.iter no_calls (sub_exprs e)
      in
      let rec no_tasks (s : stmt) =
        (match s.s with
        | Async _ -> error s.sloc "async is not allowed inside isolated"
        | Finish _ -> error s.sloc "finish is not allowed inside isolated"
        | Isolated _ -> error s.sloc "isolated sections may not nest"
        | _ -> ());
        List.iter no_calls (stmt_exprs s);
        iter_sub no_tasks s
      in
      no_tasks body;
      in_scope env (fun () -> check_stmt env ~ret body)
  | Block b ->
      in_scope env (fun () -> List.iter (check_stmt env ~ret) b.stmts)
  | Expr e -> ignore (type_expr env e)

let check_func env (f : func) : unit =
  env.scopes <- [ [] ];
  env.async_depth <- 0;
  List.iter
    (fun (x, ty) ->
      declare env f.floc x { bty = ty; bmut = Immut; basync = 0 })
    f.params;
  in_scope env (fun () -> List.iter (check_stmt env ~ret:f.ret) f.body.stmts)

(** Type-check a whole program.

    @param require_main require a [def main()] with no parameters and unit
      return type (default [true]).
    @raise Error on the first type error found. *)
let check_program ?(require_main = true) (p : program) : unit =
  let env =
    {
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      scopes = [];
      async_depth = 0;
    }
  in
  List.iter
    (fun (g : global) ->
      if Hashtbl.mem env.globals g.gname then
        error g.gloc "duplicate global '%s'" g.gname;
      (match g.gty with
      | TStr -> error g.gloc "globals of type str are not allowed"
      | _ -> ());
      Hashtbl.add env.globals g.gname g.gty)
    p.globals;
  List.iter
    (fun (f : func) ->
      if Builtins.is_builtin f.fname then
        error f.floc "function '%s' shadows a builtin" f.fname;
      if Hashtbl.mem env.funcs f.fname then
        error f.floc "duplicate function '%s'" f.fname;
      Hashtbl.add env.funcs f.fname f)
    p.funcs;
  (* Global initializers run in the root task before main: plain exprs. *)
  List.iter
    (fun (g : global) ->
      let t = type_expr env g.ginit in
      if not (equal_ty t g.gty) then
        error g.gloc "initializer of global '%s' has type %s but was declared %s"
          g.gname (string_of_ty t) (string_of_ty g.gty))
    p.globals;
  List.iter (check_func env) p.funcs;
  if require_main then
    match find_func p "main" with
    | Some f ->
        if f.params <> [] then error f.floc "main must take no parameters";
        if f.ret <> TUnit then error f.floc "main must return unit"
    | None -> error Loc.dummy "program has no 'main' function"
