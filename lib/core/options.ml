(* See options.mli. *)

module J = Obs.Json

type backend = [ `Espbags | `Vclock | `Auto ]
type strategy = [ `Finish | `Isolated | `Elide | `Chunk | `Tournament ]
type placement = [ `Batch | `Incremental ]

type t = {
  mode : Espbags.Detector.mode;
  backend : backend;
  strategy : strategy;
  placement : placement;
  static_prune : bool;
  static_verify : bool;
  budgets : Guard.budgets;
  shadow_chunk : int option;
  spill : string option;
  sets : (string * int) list;
}

let default =
  {
    mode = Espbags.Detector.Mrw;
    backend = `Espbags;
    strategy = `Finish;
    placement = `Batch;
    static_prune = false;
    static_verify = false;
    budgets = Guard.unlimited;
    shadow_chunk = None;
    spill = None;
    sets = [];
  }

type command = Detect | Repair
type range = { lo : int; hi : int; noun : string }

let out_of_range { lo; hi; noun } n =
  let say w = Some (if noun = "" then w else noun ^ " " ^ w) in
  if n > hi then say (Printf.sprintf "must be at most %d" hi)
  else if n >= lo then None
  else if lo = 0 then say "must be non-negative"
  else if lo = 1 then say "must be positive"
  else say (Printf.sprintf "must be at least %d" lo)

type _ kind =
  | Flag : bool kind
  | Enum : (string * 'a) list -> 'a kind
  | Int : range -> int option kind
  | Path : string option kind
  | Sets : (string * int) list kind

type 'a row = {
  key : string;
  docv : string;
  doc : string;
  kind : 'a kind;
  commands : command list;
  semantic : bool;
  set : 'a -> t -> t;
}

type field = Field : 'a row * 'a -> field

(* Every row so far can change a job's result. *)
let row ?(commands = [ Detect; Repair ]) ?(docv = "") key kind set doc =
  { key; docv; doc; kind; commands; semantic = true; set }

let repair_only = [ Repair ]

let budget key set doc =
  let non_negative = Int { lo = 0; hi = max_int; noun = "" } in
  row key ~docv:"N" ~commands:repair_only non_negative set doc

let strategies =
  [
    ("finish", `Finish);
    ("isolated", `Isolated);
    ("elide", `Elide);
    ("chunk", `Chunk);
    ("tournament", `Tournament);
  ]

module Row = struct
  let mode =
    row "mode" ~docv:"MODE"
      (Enum [ ("mrw", Espbags.Detector.Mrw); ("srw", Espbags.Detector.Srw) ])
      (fun mode o -> { o with mode })
      "ESP-bags detector flavour: $(b,mrw) (all readers/writers, the \
       paper's default) or $(b,srw) (single reader-writer)."

  let backend =
    row "backend" ~docv:"B"
      (Enum [ ("espbags", `Espbags); ("vclock", `Vclock); ("auto", `Auto) ])
      (fun backend o -> { o with backend })
      "Detection backend: $(b,espbags) (the paper's algorithm, the \
       default), $(b,vclock) (vector clocks, report-identical to \
       ESP-bags), or $(b,auto) (pick per workload from its task \
       shape; the choice is printed and recorded in the metrics as \
       $(b,detector.backend))."

  let strategy =
    row "strategy" ~docv:"S" (Enum strategies)
      (fun strategy o -> { o with strategy })
      "Repair strategy: $(b,finish) (the paper's interval-DP finish \
       insertion, the default), $(b,isolated) (wrap the racing \
       statements in mutually-exclusive isolated sections), \
       $(b,elide) (demote the offending asyncs to inline sequential \
       execution), $(b,chunk) (split a racy loop into sub-loops with \
       a finish at every chunk seam), or $(b,tournament) (run all \
       four, verify each race-free, and keep the minimum-CPL winner; \
       ties break toward $(b,finish)).  Per-strategy outcomes land \
       in the metrics as $(b,strategy.*)."

  let placement =
    row "placement" ~docv:"P" ~commands:repair_only
      (Enum [ ("batch", `Batch); ("incremental", `Incremental) ])
      (fun placement o -> { o with placement })
      "Finish-placement strategy: $(b,batch) (all NS-LCA groups per \
       detection run) or $(b,incremental) (the paper's §6.1 \
       live-S-DPST loop)."

  let static_prune =
    row "static_prune" Flag
      (fun static_prune o -> { o with static_prune })
      "Run the static MHP pre-pass first and skip instrumenting \
       accesses it proves sequential.  With $(b,--mode mrw) the \
       reported race set is unchanged; detection only gets cheaper."

  let static_verify =
    row "static_verify" ~commands:repair_only Flag
      (fun static_verify o -> { o with static_verify })
      "After convergence, run the static race checker on the repaired \
       program.  If it discharges every MHP pair, the repair is \
       race-free for $(i,all) inputs; otherwise the unproven pairs \
       are listed and the command exits 4."

  let budget_fuel =
    budget "budget_fuel"
      (fun fuel o -> { o with budgets = { o.budgets with fuel } })
      "Interpreter budget: abort any execution after $(docv) cost \
       units (exit code 4)."

  let budget_sdpst =
    budget "budget_sdpst"
      (fun sdpst_nodes o -> { o with budgets = { o.budgets with sdpst_nodes } })
      "S-DPST budget: when a detection run's tree exceeds $(docv) \
       nodes, collapse race-free regions before placement.  The \
       repair still converges; the degradation is recorded in the \
       report and by exit code 4."

  let budget_dp =
    budget "budget_dp"
      (fun dp_work o -> { o with budgets = { o.budgets with dp_work } })
      "Placement-DP budget in work units (~cube of the dependence \
       graph size).  Affordable groups get the exact DP; exhausted \
       groups degrade to per-edge interval covers (exit code 4)."

  let shadow_chunk =
    row "shadow_chunk" ~docv:"N"
      (Int { lo = 1; hi = Tdrutil.Islab.max_chunk; noun = "chunk size" })
      (fun shadow_chunk o -> { o with shadow_chunk })
      (Printf.sprintf
         "Grow the detector's shadow tables in slab chunks of $(docv) \
          slots (default %d, at most %d; rounded up to a power of two). \
          \ Reported races are unchanged; smaller chunks track sparse \
          address spaces more tightly."
         Tdrutil.Islab.default_chunk Tdrutil.Islab.max_chunk)

  let spill =
    row "spill" ~docv:"FILE" Path
      (fun spill o -> { o with spill })
      "Bound in-memory race records by draining overflow to $(docv) \
       (a loadable race-trace file, removed again if nothing \
       spills).  Reported races are unchanged."

  let sets =
    row "set" ~docv:"NAME=INT" Sets
      (fun sets o -> { o with sets })
      "Override an int global's initializer — vary the test input \
       without editing the program.  Repeatable."
end

(* Every field is named, none as [_]: a field added to [t] without a row
   here is a warning-9 error. *)
let fields
    {
      mode;
      backend;
      strategy;
      placement;
      static_prune;
      static_verify;
      budgets = { Guard.fuel; sdpst_nodes; dp_work };
      shadow_chunk;
      spill;
      sets;
    } =
  [
    Field (Row.mode, mode);
    Field (Row.backend, backend);
    Field (Row.strategy, strategy);
    Field (Row.placement, placement);
    Field (Row.static_prune, static_prune);
    Field (Row.static_verify, static_verify);
    Field (Row.budget_fuel, fuel);
    Field (Row.budget_sdpst, sdpst_nodes);
    Field (Row.budget_dp, dp_work);
    Field (Row.shadow_chunk, shadow_chunk);
    Field (Row.spill, spill);
    Field (Row.sets, sets);
  ]

let flag_name r = String.map (function '_' -> '-' | c -> c) r.key

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let name_of names v = fst (List.find (fun (_, x) -> x = v) names)

let encode : type a. a kind -> a -> J.t option =
 fun kind v ->
  match kind with
  | Flag -> Some (J.Bool v)
  | Enum names -> Some (J.Str (name_of names v))
  | Int _ -> Option.map (fun n -> J.Int n) v
  | Path -> Option.map (fun s -> J.Str s) v
  | Sets -> Some (J.Obj (List.map (fun (k, n) -> (k, J.Int n)) v))

let decode : type a. string -> a kind -> J.t -> (a, string) result =
 fun key kind j ->
  let err what = Error (Printf.sprintf "flags.%s must be %s" key what) in
  match (kind, j) with
  | Flag, J.Bool b -> Ok b
  | Flag, _ -> err "a boolean"
  | Enum names, J.Str s when List.mem_assoc s names -> Ok (List.assoc s names)
  | Enum names, _ ->
      err ("one of " ^ String.concat ", " (List.map (fun (s, _) -> s) names))
  | Int range, J.Int n -> (
      match out_of_range range n with
      | None -> Ok (Some n)
      | Some why -> Error (Printf.sprintf "flags.%s: %s" key why))
  | Int _, _ -> err "an integer"
  | Path, J.Str s -> Ok (Some s)
  | Path, _ -> err "a string"
  | Sets, J.Obj kvs ->
      List.fold_right
        (fun (k, v) acc ->
          match v with
          | J.Int n -> Result.map (List.cons (k, n)) acc
          | _ -> Error (Printf.sprintf "flags.%s.%s must be an integer" key k))
        kvs (Ok [])
  | Sets, _ -> err "an object of int overrides"

let of_json = function
  | J.Obj kvs ->
      let table = fields default in
      List.fold_left
        (fun acc (k, j) ->
          Result.bind acc (fun o ->
              match List.find_opt (fun (Field (r, _)) -> r.key = k) table with
              | None -> Error (Printf.sprintf "unknown flag %S" k)
              | Some (Field (r, _)) ->
                  Result.map (fun v -> r.set v o) (decode r.key r.kind j)))
        (Ok default) kvs
  | _ -> Error "\"flags\" must be an object"

let encode_rows ~semantic_only o =
  J.Obj
    (List.filter_map
       (fun (Field (r, v)) ->
         if r.semantic || not semantic_only then
           Option.map (fun j -> (r.key, j)) (encode r.kind v)
         else None)
       (fields o))

let to_json o = encode_rows ~semantic_only:false o

let key o =
  Digest.to_hex
    (Digest.string (J.to_string (encode_rows ~semantic_only:true o)))

let pp_strategy ppf s = Fmt.string ppf (name_of strategies s)

let validate cmd o =
  let finish_only r =
    Error
      (Fmt.str "%s applies only to strategy finish, not %a" r.key pp_strategy
         o.strategy)
  in
  match cmd with
  | Repair when o.strategy <> `Finish && o.static_verify ->
      finish_only Row.static_verify
  | Repair when o.strategy <> `Finish && o.spill <> None ->
      finish_only Row.spill
  | _ -> Ok ()

let apply_sets sets prog =
  List.fold_left
    (fun p (name, v) ->
      try Mhj.Transform.set_global_int p name v
      with Invalid_argument m ->
        raise (Diag.Fail (Diag.make ~stage:Diag.Typecheck m)))
    prog sets
