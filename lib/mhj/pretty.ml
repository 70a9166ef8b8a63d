(** Pretty-printer for Mini-HJ.

    Output is valid Mini-HJ that re-parses to a structurally identical
    program (round-trip property tested in [test/test_mhj.ml]).  The repair
    driver uses it to emit the repaired program with its newly inserted
    [finish] statements. *)

open Ast

let prec_of_binop = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let rec pp_expr_prec prec ppf (e : expr) =
  match e.e with
  | Int n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Float f ->
      (* %h-style output is not re-parseable; use a decimal form. *)
      let s = Fmt.str "%.17g" f in
      let s =
        if String.contains s '.' || String.contains s 'e'
           || String.contains s 'n' (* nan/inf *)
        then s
        else s ^ ".0"
      in
      Fmt.string ppf s
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.pf ppf "%S" s
  | Var x -> Fmt.string ppf x
  | Bin (op, a, b) ->
      let p = prec_of_binop op in
      (* Comparisons and equality are non-associative in the grammar, so a
         same-precedence operand needs parentheses on the left as well. *)
      let left_prec =
        match op with Eq | Ne | Lt | Le | Gt | Ge -> p + 1 | _ -> p
      in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_expr_prec left_prec) a (string_of_binop op)
          (pp_expr_prec (p + 1)) b
      in
      if p < prec then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Un (op, a) -> Fmt.pf ppf "%s%a" (string_of_unop op) (pp_expr_prec 6) a
  | Idx (a, i) -> Fmt.pf ppf "%a[%a]" (pp_expr_prec 7) a (pp_expr_prec 0) i
  | Call (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_expr_prec 0)) args
  | NewArr (base, dims) ->
      Fmt.pf ppf "new %a%a" pp_ty base
        (Fmt.list ~sep:Fmt.nop (fun ppf d -> Fmt.pf ppf "[%a]" (pp_expr_prec 0) d))
        dims

let pp_expr ppf e = pp_expr_prec 0 ppf e

let indent n = String.make (2 * n) ' '

let rec pp_stmt depth ppf (st : stmt) =
  let ind = indent depth in
  match st.s with
  | Decl (m, x, ty, init) ->
      Fmt.pf ppf "%s%s %s: %a = %a;" ind
        (match m with Mut -> "var" | Immut -> "val")
        x pp_ty ty pp_expr init
  | Assign (x, path, rhs) ->
      Fmt.pf ppf "%s%s%a = %a;" ind x
        (Fmt.list ~sep:Fmt.nop (fun ppf i -> Fmt.pf ppf "[%a]" pp_expr i))
        path pp_expr rhs
  | If (c, a, b) -> (
      Fmt.pf ppf "%sif (%a)@\n%a" ind pp_expr c (pp_stmt (depth + 1)) a;
      match b with
      | None -> ()
      | Some b -> Fmt.pf ppf "@\n%selse@\n%a" ind (pp_stmt (depth + 1)) b)
  | While (c, body) ->
      Fmt.pf ppf "%swhile (%a)@\n%a" ind pp_expr c (pp_stmt (depth + 1)) body
  | For (i, lo, hi, by, body) ->
      Fmt.pf ppf "%sfor (%s = %a to %a%a)@\n%a" ind i pp_expr lo pp_expr hi
        (Fmt.option (fun ppf e -> Fmt.pf ppf " by %a" pp_expr e))
        by
        (pp_stmt (depth + 1))
        body
  | Return None -> Fmt.pf ppf "%sreturn;" ind
  | Return (Some e) -> Fmt.pf ppf "%sreturn %a;" ind pp_expr e
  | Async body -> Fmt.pf ppf "%sasync@\n%a" ind (pp_stmt (depth + 1)) body
  | Finish body -> Fmt.pf ppf "%sfinish@\n%a" ind (pp_stmt (depth + 1)) body
  | Isolated body ->
      Fmt.pf ppf "%sisolated@\n%a" ind (pp_stmt (depth + 1)) body
  | Block b -> pp_block depth ppf b
  | Expr e -> Fmt.pf ppf "%s%a;" ind pp_expr e

and pp_block depth ppf (b : block) =
  let ind = indent (depth - 1) in
  Fmt.pf ppf "%s{" ind;
  List.iter (fun st -> Fmt.pf ppf "@\n%a" (pp_stmt depth) st) b.stmts;
  Fmt.pf ppf "@\n%s}" ind

let pp_func ppf (f : func) =
  let pp_param ppf (x, ty) = Fmt.pf ppf "%s: %a" x pp_ty ty in
  Fmt.pf ppf "def %s(%a)%a@\n%a" f.fname
    (Fmt.list ~sep:(Fmt.any ", ") pp_param)
    f.params
    (fun ppf ret ->
      match ret with TUnit -> () | t -> Fmt.pf ppf ": %a" pp_ty t)
    f.ret (pp_block 1) f.body

let pp_global ppf (g : global) =
  Fmt.pf ppf "var %s: %a = %a;" g.gname pp_ty g.gty pp_expr g.ginit

let pp_program ppf (p : program) =
  List.iter (fun g -> Fmt.pf ppf "%a@\n@\n" pp_global g) p.globals;
  let first = ref true in
  List.iter
    (fun f ->
      if not !first then Fmt.pf ppf "@\n@\n";
      first := false;
      pp_func ppf f)
    p.funcs;
  Fmt.pf ppf "@\n"

(** Render a whole program back to concrete syntax. *)
let program_to_string (p : program) : string = Fmt.str "%a" pp_program p

let expr_to_string (e : expr) : string = Fmt.str "%a" pp_expr e

