(** AST rewrites used by the repair tool.

    - {!strip_finishes} builds the under-synchronized input programs of the
      paper's §7.1 evaluation ("we removed all finish statements from the
      benchmarks");
    - {!insert_finishes} applies the static finish placements computed by
      the repair algorithm: each placement wraps a contiguous range of
      statements of one block in a new [finish] statement. *)

open Ast

(** A static finish placement: wrap statements [lo..hi] (0-based, inclusive)
    of the block identified by [bid]. *)
type placement = { bid : int; lo : int; hi : int }

let pp_placement ppf p = Fmt.pf ppf "finish@@block%d[%d..%d]" p.bid p.lo p.hi

let equal_placement a b = a.bid = b.bid && a.lo = b.lo && a.hi = b.hi

(* ------------------------------------------------------------------ *)
(* Stripping                                                           *)
(* ------------------------------------------------------------------ *)

let rec strip_stmt (st : stmt) : stmt =
  match st.s with
  | Finish body -> { st with s = (strip_stmt body).s }
  | _ -> map_sub strip_stmt st

(** Remove every [finish] statement (bodies stay in place).  Statement and
    block ids of the remaining nodes are preserved. *)
let strip_finishes (p : program) : program = map_funcs strip_stmt p

(* ------------------------------------------------------------------ *)
(* Finish insertion                                                    *)
(* ------------------------------------------------------------------ *)

(* Wrap the given (lo, hi) intervals of a statement list in finish blocks.
   Intervals must be pairwise nested or disjoint — this mirrors the
   block-structure of finish and is guaranteed by the DP placement (its
   FinishSet intervals never cross).  Processes top-level intervals left to
   right, recursing into each to apply the contained ones. *)
let rec wrap_intervals (stmts : stmt list) (intervals : (int * int) list) :
    stmt list =
  match intervals with
  | [] -> stmts
  | _ ->
      let sorted =
        List.sort_uniq
          (fun (a1, b1) (a2, b2) ->
            if a1 <> a2 then Int.compare a1 a2 else Int.compare b2 b1)
          intervals
      in
      let arr = Array.of_list stmts in
      let n = Array.length arr in
      List.iter
        (fun (lo, hi) ->
          if lo < 0 || hi >= n || lo > hi then
            invalid_arg
              (Fmt.str "wrap_intervals: interval [%d..%d] out of bounds 0..%d"
                 lo hi (n - 1)))
        sorted;
      (* Partition into top-level intervals and their strictly nested
         children. *)
      let rec split_top = function
        | [] -> []
        | (lo, hi) :: rest ->
            let children, siblings =
              List.partition (fun (l, h) -> l >= lo && h <= hi) rest
            in
            List.iter
              (fun (l, h) ->
                if l <= hi && h > hi then
                  invalid_arg
                    (Fmt.str
                       "wrap_intervals: crossing intervals [%d..%d] and \
                        [%d..%d]"
                       lo hi l h))
              siblings;
            ((lo, hi), children) :: split_top siblings
      in
      let tops = split_top sorted in
      let out = ref [] in
      let cursor = ref 0 in
      List.iter
        (fun ((lo, hi), children) ->
          for i = !cursor to lo - 1 do
            out := arr.(i) :: !out
          done;
          let sub = Array.to_list (Array.sub arr lo (hi - lo + 1)) in
          let children =
            List.filter
              (fun (l, h) -> not (l = lo && h = hi))
              children
            |> List.map (fun (l, h) -> (l - lo, h - lo))
          in
          let wrapped = finish_of_range (wrap_intervals sub children) in
          out := wrapped :: !out;
          cursor := hi + 1)
        tops;
      for i = !cursor to n - 1 do
        out := arr.(i) :: !out
      done;
      List.rev !out

(* Rewrite each block targeted by [placements] with [wrap], given the
   block's statements and its placements' (lo, hi) intervals. *)
let apply_placements wrap (p : program) (placements : placement list) =
  let by_bid = Hashtbl.create 8 in
  List.iter
    (fun pl ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_bid pl.bid) in
      Hashtbl.replace by_bid pl.bid ((pl.lo, pl.hi) :: cur))
    placements;
  map_blocks
    (fun b ->
      match Hashtbl.find_opt by_bid b.bid with
      | None -> b
      | Some intervals -> { b with stmts = wrap b.stmts intervals })
    p

(** Apply a set of static placements to the program.  Placements targeting
    the same block may be nested or disjoint but must not cross.
    @raise Invalid_argument on out-of-range or crossing placements. *)
let insert_finishes (p : program) (placements : placement list) : program =
  apply_placements wrap_intervals p placements

(* ------------------------------------------------------------------ *)
(* Alternative repair rewrites (strategy layer)                        *)
(* ------------------------------------------------------------------ *)

(* Same interval machinery as finish insertion, but each top-level
   interval becomes an [isolated { ... }] section.  Isolation never
   nests (the type checker forbids it), so the intervals of one block
   must be pairwise disjoint. *)
let wrap_isolated (stmts : stmt list) (intervals : (int * int) list) :
    stmt list =
  let sorted =
    List.sort_uniq
      (fun (a1, b1) (a2, b2) ->
        if a1 <> a2 then Int.compare a1 a2 else Int.compare b2 b1)
      intervals
  in
  let rec check = function
    | (_, h1) :: ((l2, _) :: _ as rest) ->
        if l2 <= h1 then
          invalid_arg
            (Fmt.str "wrap_isolated: intervals [..%d] and [%d..] overlap" h1
               l2);
        check rest
    | _ -> ()
  in
  check sorted;
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let out = ref [] in
  let cursor = ref 0 in
  List.iter
    (fun (lo, hi) ->
      if lo < 0 || hi >= n || lo > hi then
        invalid_arg
          (Fmt.str "wrap_isolated: interval [%d..%d] out of bounds 0..%d" lo
             hi (n - 1));
      for i = !cursor to lo - 1 do
        out := arr.(i) :: !out
      done;
      let sub = Array.to_list (Array.sub arr lo (hi - lo + 1)) in
      out := isolated_of_range sub :: !out;
      cursor := hi + 1)
    sorted;
  for i = !cursor to n - 1 do
    out := arr.(i) :: !out
  done;
  List.rev !out

(** Wrap each placement's statement range in an [isolated { ... }]
    section.  Placements targeting one block must be pairwise disjoint.
    @raise Invalid_argument on out-of-range or overlapping placements. *)
let insert_isolated (p : program) (placements : placement list) : program =
  apply_placements wrap_isolated p placements

(** [elide_asyncs p sids] demotes each [async] statement whose sid is in
    [sids] to inline sequential execution: the wrapper is removed and its
    body block runs in place.  Ids of untouched nodes are preserved. *)
let elide_asyncs (p : program) (sids : int list) : program =
  let target = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace target s ()) sids;
  let rec on_stmt (st : stmt) : stmt =
    match st.s with
    | Async body when Hashtbl.mem target st.sid -> { st with s = (on_stmt body).s }
    | _ -> map_sub on_stmt st
  in
  map_funcs on_stmt p

(** Is the expression duplicable into a chunk guard — evaluation-order
    safe and side-effect free when repeated? *)
let duplicable (e : expr) : bool =
  match e.e with Int _ | Var _ -> true | _ -> false

(** [chunk_loop p ~sid ~chunk] splits the [for] loop with statement id
    [sid] into chunks of [chunk] iterations, each wrapped in a [finish]:

    {v
    for (i = lo to hi by s) B
    ==>
    for (c = lo to hi by chunk*s)
      finish
        for (i = c to c + (chunk-1)*s by s)
          if (s > 0 ? i <= hi : i >= hi) B
    v}

    Statement/block ids of the original body are preserved, so races
    re-detected on the chunked program still map to the same static
    points.  Requires a literal (or defaulted) step and a duplicable
    upper bound.
    @raise Invalid_argument if [sid] is not a chunkable [for] or [chunk]
    is not positive. *)
let chunk_loop (p : program) ~(sid : int) ~(chunk : int) : program =
  if chunk <= 0 then invalid_arg "chunk_loop: chunk must be positive";
  let found = ref false in
  let rec on_stmt (st : stmt) : stmt =
    match st.s with
    | For (i, lo, hi, by, body) when st.sid = sid ->
        found := true;
        let step =
          match by with
          | None -> 1
          | Some { e = Int s; _ } -> s
          | Some _ -> invalid_arg "chunk_loop: step is not a literal"
        in
        if step = 0 then invalid_arg "chunk_loop: zero step";
        if not (duplicable hi) then
          invalid_arg "chunk_loop: upper bound is not duplicable";
        let c = "__chunk" ^ string_of_int sid in
        let guard =
          mk_expr
            (Bin ((if step > 0 then Le else Ge), mk_expr (Var i), hi))
        in
        let inner_hi =
          mk_expr (Bin (Add, mk_expr (Var c), mk_expr (Int ((chunk - 1) * step))))
        in
        let inner_body =
          mk_stmt (Block (mk_block [ mk_stmt (If (guard, body, None)) ]))
        in
        let inner_for =
          mk_stmt (For (i, mk_expr (Var c), inner_hi, by, inner_body))
        in
        let outer_body =
          mk_stmt (Block (mk_block [ finish_of_range [ inner_for ] ]))
        in
        {
          st with
          s =
            For
              (c, lo, hi, Some (mk_expr (Int (chunk * step))), outer_body);
        }
    | _ -> map_sub on_stmt st
  in
  let p' = map_funcs on_stmt p in
  if not !found then
    invalid_arg (Fmt.str "chunk_loop: no for loop with sid %d" sid);
  p'

(* ------------------------------------------------------------------ *)
(* Test-input variation                                                *)
(* ------------------------------------------------------------------ *)

(** [set_global_int p name v] returns [p] with global [name]'s initializer
    replaced by the literal [v] — how a test harness varies the program's
    input without disturbing any statement or block id (so placements
    computed under one input apply to the program under another).
    @raise Invalid_argument if there is no int global called [name]. *)
let set_global_int (p : program) (name : string) (v : int) : program =
  let found = ref false in
  let globals =
    List.map
      (fun (g : global) ->
        if g.gname = name then begin
          if not (equal_ty g.gty TInt) then
            invalid_arg
              (Fmt.str "set_global_int: global '%s' has type %s" name
                 (string_of_ty g.gty));
          found := true;
          { g with ginit = mk_expr ~loc:g.ginit.eloc (Int v) }
        end
        else g)
      p.globals
  in
  if not !found then
    invalid_arg (Fmt.str "set_global_int: no global named '%s'" name);
  { p with globals }
