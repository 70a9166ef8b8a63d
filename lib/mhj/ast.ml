(** Abstract syntax for Mini-HJ, the structured task-parallel input language.

    Mini-HJ is the subset of Habanero Java / X10 that the paper targets:
    a sequential imperative core (ints, floats, bools, multi-dimensional
    arrays, globals, first-order functions, loops) extended with the two
    structured-parallelism constructs [async] and [finish].

    Every statement carries a unique statement id ([sid]) and every block a
    unique block id ([bid]).  The repair tool identifies static program
    points as (block id, statement index range) pairs, so these ids are the
    contract between the dynamic analysis (which records them in the S-DPST)
    and the static finish-placement pass (which rewrites the AST). *)

type ty =
  | TInt
  | TFloat
  | TBool
  | TUnit
  | TStr   (** string literals; only valid as an argument to [print] *)
  | TArr of ty

let rec equal_ty a b =
  match (a, b) with
  | TInt, TInt | TFloat, TFloat | TBool, TBool | TUnit, TUnit | TStr, TStr ->
      true
  | TArr a, TArr b -> equal_ty a b
  | _ -> false

let rec pp_ty ppf = function
  | TInt -> Fmt.string ppf "int"
  | TFloat -> Fmt.string ppf "float"
  | TBool -> Fmt.string ppf "bool"
  | TUnit -> Fmt.string ppf "unit"
  | TStr -> Fmt.string ppf "str"
  | TArr t -> Fmt.pf ppf "%a[]" pp_ty t

let string_of_ty t = Fmt.str "%a" pp_ty t

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"

let string_of_unop = function Neg -> "-" | Not -> "!"

type expr = { e : expr_desc; eloc : Loc.t }

and expr_desc =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Var of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Idx of expr * expr  (** [a[i]] *)
  | Call of string * expr list  (** user function or builtin *)
  | NewArr of ty * expr list
      (** [new t[d1][d2]...]: element type [t] and one expr per dimension *)

(** Whether a local binding may be re-assigned.  As in HJ (where captured
    variables must be [final]), async bodies may only reference immutable
    ([val]) outer locals; this is enforced by {!Typecheck}. *)
type mutability = Mut | Immut

type stmt = { s : stmt_desc; sid : int; sloc : Loc.t }

and stmt_desc =
  | Decl of mutability * string * ty * expr
  | Assign of string * expr list * expr
      (** [x = e] (empty index path) or [a[i]..[j] = e] *)
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | For of string * expr * expr * expr option * stmt
      (** [for (i = lo to hi [by step]) s]; bounds inclusive, default step 1 *)
  | Return of expr option
  | Async of stmt
  | Finish of stmt
  | Isolated of stmt
      (** [isolated s]: a sequential critical section; at most one
          isolated section executes at a time (global mutual exclusion).
          Bodies may not spawn or join tasks. *)
  | Block of block
  | Expr of expr

and block = { bid : int; stmts : stmt list }

type func = {
  fname : string;
  params : (string * ty) list;
  ret : ty;
  body : block;
  floc : Loc.t;
}

type global = { gname : string; gty : ty; ginit : expr; gloc : Loc.t }

type program = { globals : global list; funcs : func list }

(* ------------------------------------------------------------------ *)
(* Id supply                                                           *)
(* ------------------------------------------------------------------ *)

(* Ids are globally unique across all programs built in one process, so
   AST rewrites can always mint fresh ids without consulting the program.
   The supply is atomic: serve workers compile and rewrite programs on
   several domains at once. *)
let sid_counter = Atomic.make 0
let bid_counter = Atomic.make 0
let fresh_sid () = 1 + Atomic.fetch_and_add sid_counter 1
let fresh_bid () = 1 + Atomic.fetch_and_add bid_counter 1

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let mk_expr ?(loc = Loc.dummy) e = { e; eloc = loc }
let mk_stmt ?(loc = Loc.dummy) s = { s; sid = fresh_sid (); sloc = loc }
let mk_block stmts = { bid = fresh_bid (); stmts }

(** [finish_of_range stmts] wraps a statement list in a fresh
    [finish { ... }] statement, as inserted by the repair tool. *)
let finish_of_range stmts =
  mk_stmt (Finish (mk_stmt (Block (mk_block stmts))))

(** [isolated_of_range stmts] wraps a statement list in a fresh
    [isolated { ... }] statement, as inserted by the isolation repair
    strategy. *)
let isolated_of_range stmts =
  mk_stmt (Isolated (mk_stmt (Block (mk_block stmts))))

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** [map_sub f st] rebuilds [st] with [f] applied to each directly nested
    statement: compound-statement bodies and a block's elements.  Ids are
    preserved. *)
let map_sub (f : stmt -> stmt) (st : stmt) : stmt =
  let s =
    match st.s with
    | (Decl _ | Assign _ | Return _ | Expr _) as s -> s
    | If (c, a, b) -> If (c, f a, Option.map f b)
    | While (c, b) -> While (c, f b)
    | For (i, lo, hi, by, b) -> For (i, lo, hi, by, f b)
    | Async b -> Async (f b)
    | Finish b -> Finish (f b)
    | Isolated b -> Isolated (f b)
    | Block b -> Block { b with stmts = List.map f b.stmts }
  in
  { st with s }

(** [iter_sub f st] applies [f] to each directly nested statement. *)
let iter_sub (f : stmt -> unit) (st : stmt) : unit =
  match st.s with
  | Decl _ | Assign _ | Return _ | Expr _ -> ()
  | If (_, a, b) ->
      f a;
      Option.iter f b
  | While (_, b) | For (_, _, _, _, b) | Async b | Finish b | Isolated b -> f b
  | Block b -> List.iter f b.stmts

(** The expressions a statement evaluates itself (not those of nested
    statements), in evaluation order. *)
let stmt_exprs (st : stmt) : expr list =
  match st.s with
  | Decl (_, _, _, e) | Expr e | Return (Some e) -> [ e ]
  | Assign (_, path, rhs) -> path @ [ rhs ]
  | If (c, _, _) | While (c, _) -> [ c ]
  | For (_, lo, hi, by, _) -> lo :: hi :: Option.to_list by
  | Return None | Async _ | Finish _ | Isolated _ | Block _ -> []

(** The direct operands of an expression, in evaluation order. *)
let sub_exprs (e : expr) : expr list =
  match e.e with
  | Int _ | Float _ | Bool _ | Str _ | Var _ -> []
  | Bin (_, a, b) | Idx (a, b) -> [ a; b ]
  | Un (_, a) -> [ a ]
  | Call (_, args) | NewArr (_, args) -> args

(** [map_funcs f p] applies [f] to every top-level statement of every
    function body. *)
let map_funcs (f : stmt -> stmt) (p : program) : program =
  let on_body (b : block) = { b with stmts = List.map f b.stmts } in
  { p with funcs = List.map (fun fn -> { fn with body = on_body fn.body }) p.funcs }

(** [map_blocks f p] rebuilds [p], applying [f] to every block bottom-up
    (innermost blocks first).  Statement/block ids of untouched nodes are
    preserved, which keeps S-DPST static references stable across repair
    iterations. *)
let map_blocks (f : block -> block) (p : program) : program =
  let rec on_stmt st =
    match map_sub on_stmt st with
    | { s = Block b; _ } as st -> { st with s = Block (f b) }
    | st -> st
  in
  let on_body (b : block) = f { b with stmts = List.map on_stmt b.stmts } in
  { p with funcs = List.map (fun fn -> { fn with body = on_body fn.body }) p.funcs }

(** [iter_stmts f p] applies [f] to every statement in the program, in
    source order. *)
let iter_stmts (f : stmt -> unit) (p : program) : unit =
  let rec on_stmt st =
    f st;
    iter_sub on_stmt st
  in
  List.iter (fun fn -> List.iter on_stmt fn.body.stmts) p.funcs

(** [find_func p name] returns the function named [name], if any. *)
let find_func (p : program) (name : string) : func option =
  List.find_opt (fun f -> f.fname = name) p.funcs

let count (p : program) (is : stmt_desc -> bool) : int =
  let n = ref 0 in
  iter_stmts (fun st -> if is st.s then incr n) p;
  !n

(** Number of [async] statements in the program. *)
let count_asyncs p = count p (function Async _ -> true | _ -> false)

(** Number of [finish] statements in the program. *)
let count_finishes p = count p (function Finish _ -> true | _ -> false)

(** Number of [isolated] statements in the program. *)
let count_isolated p = count p (function Isolated _ -> true | _ -> false)

(** All statement ids in the program, in source order. *)
let all_sids (p : program) : int list =
  let acc = ref [] in
  iter_stmts (fun st -> acc := st.sid :: !acc) p;
  List.rev !acc
