(** Resource budgets and graceful degradation (see guard.mli). *)

type budgets = {
  fuel : int option;
  sdpst_nodes : int option;
  dp_work : int option;
}

let unlimited = { fuel = None; sdpst_nodes = None; dp_work = None }

type degradation =
  | Sdpst_pruned of { nodes_before : int; nodes_removed : int }
  | Dp_interval_cover of { lca_id : int }
  | Dp_unsat_fallback of { lca_id : int }
  | Validate_par_skipped of { ran : int; requested : int }
  | Job_timeout of { ms : int }

let pp_degradation ppf = function
  | Sdpst_pruned { nodes_before; nodes_removed } ->
      Fmt.pf ppf
        "S-DPST node budget exceeded: pruned %d of %d node(s) (race-free \
         regions collapsed; placement unaffected)"
        nodes_removed nodes_before
  | Dp_interval_cover { lca_id } ->
      Fmt.pf ppf
        "DP work budget exhausted at NS-LCA %d: races covered by minimal \
         per-edge intervals (best-effort, may over-serialize)"
        lca_id
  | Dp_unsat_fallback { lca_id } ->
      Fmt.pf ppf
        "DP unsatisfiable at NS-LCA %d: races covered by minimal per-edge \
         intervals"
        lca_id
  | Validate_par_skipped { ran; requested } ->
      Fmt.pf ppf
        "parallel validation budget exhausted: only %d of %d fuzzed \
         schedule(s) ran (the repair is unvalidated beyond those)"
        ran requested
  | Job_timeout { ms } ->
      Fmt.pf ppf
        "wall-clock watchdog: the job was killed after exceeding its %d ms \
         timeout"
        ms

type t = {
  budgets : budgets;
  mutable dp_spent : int;
  mutable degradations : degradation list;  (* reversed *)
}

let make budgets = { budgets; dp_spent = 0; degradations = [] }

let budgets t = t.budgets

let note t d = t.degradations <- d :: t.degradations

let degradations t = List.rev t.degradations

let dp_affordable t w =
  match t.budgets.dp_work with
  | None -> true
  | Some b -> t.dp_spent <= b - w

let dp_charge t w = t.dp_spent <- t.dp_spent + w

let effective_fuel budgets =
  match (budgets.fuel, Faultinject.fuel_cap ()) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let diag_of_injected fault msg =
  Diag.make ~stage:(Faultinject.stage_of fault) msg

let at_stage ?(passthrough = fun _ -> false) stage f =
  try f () with
  | (Diag.Fail _ | Faultinject.Injected _) as e -> raise e
  | e when passthrough e || Diag.of_exn e <> None -> raise e
  | Stack_overflow ->
      raise (Diag.Fail (Diag.internal ~stage "stack overflow"))
  | e -> raise (Diag.Fail (Diag.internal ~stage (Printexc.to_string e)))

let capture ?(classify = fun _ -> None) f =
  try Ok (f ()) with
  | e when classify e <> None -> Error (Option.get (classify e))
  | Faultinject.Injected (fault, msg) -> Error (diag_of_injected fault msg)
  | e -> (
      match Diag.of_exn e with
      | Some d -> Error d
      | None ->
          Error (Diag.internal ~stage:Diag.Place (Printexc.to_string e)))
