(** Backend selection and backend-erased detection.

    Chooses between the ESP-bags and vector-clock detectors from cheap
    syntactic workload features, without executing the program:

    - {b task fan-out}: asyncs spawned directly from loop bodies
      (forasync-style) build wide, shallow task trees.  Vector clocks
      stay short there (a clock's length tracks fork depth plus joined
      siblings) — prefer vector clocks.
    - {b deep nesting}: recursive divide-and-conquer programs fork
      along long chains, making each fork's clock copy O(depth) while
      ESP-bags pays near-constant union-find work — prefer ESP-bags.
    - {b no tasks}: nothing can race; ESP-bags (the default, most
      battle-tested backend) wins by default.

    The returned reason string is reported to the user.  [resolve] is the
    one place a [--backend] value becomes a pick, and [detect] runs
    either pick behind one result record, so no caller matches on the
    backend. *)

open Mhj

type choice = [ `Espbags | `Vclock ]

let pp_choice ppf = function
  | `Espbags -> Fmt.string ppf "espbags"
  | `Vclock -> Fmt.string ppf "vclock"

type features = {
  n_async : int;
  n_finish : int;
  n_loop_async : int;  (** asyncs spawned directly from a loop body *)
  max_async_depth : int;  (** deepest syntactic async nesting *)
}

let features (prog : Ast.program) : features =
  let n_async = ref 0
  and n_finish = ref 0
  and n_loop_async = ref 0
  and max_depth = ref 0 in
  (* [in_loop] is reset inside an async body: only the spawning loop
     matters for fan-out shape.  Call sites are not chased — features
     are per-function syntactic counts, which is enough for a
     tie-breaking heuristic. *)
  let rec stmt ~depth ~in_loop (s : Ast.stmt) =
    match s.s with
    | Ast.Async body ->
        incr n_async;
        if in_loop then incr n_loop_async;
        if depth + 1 > !max_depth then max_depth := depth + 1;
        stmt ~depth:(depth + 1) ~in_loop:false body
    | Ast.Finish body ->
        incr n_finish;
        stmt ~depth ~in_loop body
    | Ast.Isolated body -> stmt ~depth ~in_loop body
    | Ast.For (_, _, _, _, body) | Ast.While (_, body) ->
        stmt ~depth ~in_loop:true body
    | Ast.If (_, a, b) ->
        stmt ~depth ~in_loop a;
        Option.iter (stmt ~depth ~in_loop) b
    | Ast.Block b -> List.iter (stmt ~depth ~in_loop) b.stmts
    | Ast.Decl _ | Ast.Assign _ | Ast.Return _ | Ast.Expr _ -> ()
  in
  List.iter
    (fun (f : Ast.func) ->
      List.iter (stmt ~depth:0 ~in_loop:false) f.body.stmts)
    prog.funcs;
  {
    n_async = !n_async;
    n_finish = !n_finish;
    n_loop_async = !n_loop_async;
    max_async_depth = !max_depth;
  }

(** Pick a backend for [prog]; the second component is the
    human-readable reason for the choice. *)
let choose (prog : Ast.program) : choice * string =
  let f = features prog in
  if f.n_async = 0 then
    (`Espbags, "no async statements, nothing can race; ESP-bags default")
  else if f.max_async_depth >= 3 then
    ( `Espbags,
      Fmt.str
        "deeply nested tasks (async depth %d): constant-time bag ops beat \
         per-fork clock copies"
        f.max_async_depth )
  else if f.n_loop_async > 0 then
    ( `Vclock,
      Fmt.str
        "loop-spawned fan-out (%d of %d asyncs): wide shallow task tree \
         keeps clocks short"
        f.n_loop_async f.n_async )
  else
    ( `Espbags,
      Fmt.str "shallow task structure (%d asyncs, %d finishes): ESP-bags \
               default"
        f.n_async f.n_finish )

let resolve backend prog =
  match backend with
  | `Espbags -> (`Espbags, "")
  | `Vclock -> (`Vclock, "")
  | `Auto -> choose prog

type detection = {
  races : Espbags.Race.t list Lazy.t;
  pairs : Espbags.Race.Pairs.t Lazy.t;
  stats : (string * int) list Lazy.t;
  n_accesses : int;
  n_locations : int;
  n_skipped : int;
  n_spilled : int;
  result : Rt.Interp.result;
}

let run (module D : Espbags.Shadow.S) ?fuel ?keep ?chunk ?spill mode prog =
  let det, result = D.detect ?fuel ?keep ?chunk ?spill mode prog in
  {
    races = (let read = D.race_reader det in lazy (read ()));
    pairs = lazy (D.pairs det);
    stats = lazy (D.stats det);
    n_accesses = det.D.n_accesses;
    n_locations = det.n_locations;
    n_skipped = det.n_skipped;
    n_spilled = D.n_spilled det;
    result;
  }

let detect ~backend =
  match backend with
  | `Espbags -> run (module Espbags.Detector)
  | `Vclock -> run (module Seq)
