(* See worker.mli. *)

module J = Obs.Json
module FI = Repair.Faultinject
module P = Protocol

type outcome = {
  status : P.status;
  attempts : int;
  cached : bool;
  report : J.t option;
  error : string option;
  spans : string list option;
}

(* ------------------------------------------------------------------ *)
(* One pipeline run                                                    *)
(* ------------------------------------------------------------------ *)

let run_detect (o : Repair.Options.t) prog =
  let d = Repair.Driver.detect o prog in
  let pairs = Lazy.force d.pairs in
  let report =
    J.Obj
      [
        ("op", J.Str "detect");
        ( "mode",
          J.Str
            (match o.mode with Espbags.Detector.Mrw -> "mrw" | Srw -> "srw") );
        ("backend", J.Str (Fmt.str "%a" Vclock.Select.pp_choice d.backend));
        ("races", J.Int (Espbags.Race.Pairs.n_races pairs));
        ("race_pairs", J.Int (Espbags.Race.Pairs.length pairs));
        ("accesses", J.Int d.run.n_accesses);
        ("locations", J.Int d.run.n_locations);
        ("skipped", J.Int d.run.n_skipped);
        ( "race_list",
          J.List
            (List.map
               (fun r -> J.Str (Fmt.str "%a" Espbags.Race.pp r))
               (Repair.Isolate.suppress prog (Lazy.force d.run.races))) );
      ]
  in
  (P.Sok, Some report, None)

(* Non-finish repair strategies route through the tournament layer; the
   reply carries the per-strategy outcomes alongside the winner. *)
let run_repair_strategy (o : Repair.Options.t) prog =
  let outcome = Repair.Strategy.run ~options:o o.strategy prog in
  let open Repair.Strategy in
  let json =
    J.Obj
      [
        ("op", J.Str "repair");
        ("strategy", J.Str (Fmt.str "%a" pp_choice o.strategy));
        ("winner", J.Str (kind_name outcome.winner.kind));
        ("converged", J.Bool true);
        ( "candidates",
          J.List
            (List.map
               (fun (c : candidate) ->
                 J.Obj
                   [
                     ("kind", J.Str (kind_name c.kind));
                     ("produced", J.Bool (c.program <> None));
                     ("verified", J.Bool c.verified);
                     ("rounds", J.Int c.rounds);
                     ( "cpl",
                       match c.score with
                       | Some s -> J.Int s.Compgraph.Score.cpl
                       | None -> J.Null );
                   ])
               outcome.candidates) );
        ( "metrics",
          J.Obj (List.map (fun (k, v) -> (k, J.Int v)) outcome.metrics) );
        ("program", J.Str (Mhj.Pretty.program_to_string outcome.program));
      ]
  in
  (P.Sok, Some json, None)

let run_repair (o : Repair.Options.t) prog =
  if o.strategy <> `Finish then run_repair_strategy o prog
  else
  let report = Repair.Driver.repair ~options:o prog in
  let open Repair.Driver in
  let degraded =
    report.degradations <> [] || report.verified_static = Some false
  in
  let json =
    J.Obj
      [
        ("op", J.Str "repair");
        ("converged", J.Bool report.converged);
        ("iterations", J.Int (List.length report.iterations));
        ("placements", J.Int (List.length (total_placements report)));
        ("final_races", J.Int report.final_races);
        ( "degradations",
          J.List
            (List.map
               (fun d ->
                 J.Str (Fmt.str "%a" Repair.Guard.pp_degradation d))
               report.degradations) );
        ( "verified_static",
          match report.verified_static with
          | None -> J.Null
          | Some b -> J.Bool b );
        ("program", J.Str (Mhj.Pretty.program_to_string report.program));
      ]
  in
  if not report.converged then
    (P.Sfailed, Some json, Some "repair did not converge")
  else if degraded then (P.Sdegraded, Some json, None)
  else (P.Sok, Some json, None)

let run_lint prog =
  let findings = Static.Lint.run prog in
  let report =
    J.Obj
      [
        ("op", J.Str "lint");
        ("findings", J.Int (List.length findings));
        ( "finding_list",
          J.List
            (List.map
               (fun f -> J.Str (Static.Finding.to_string f))
               findings) );
      ]
  in
  (P.Sok, Some report, None)

let run_once ~timeout_ms ~faults (spec : P.job_spec) =
  FI.with_faults faults (fun () ->
      Rt.Watchdog.with_timeout ~ms:timeout_ms (fun () ->
          (* Daemon-level stall fault: fires before the pipeline so every
             op — not just repair, whose driver also honours it per
             iteration — exercises the watchdog. *)
          FI.fire_slow ();
          let prog =
            Obs.Trace.with_span "compile" (fun () ->
                Repair.Options.apply_sets spec.flags.options.sets
                  (Mhj.Front.compile spec.src))
          in
          match spec.op with
          | P.Detect -> run_detect spec.flags.options prog
          | P.Repair -> run_repair spec.flags.options prog
          | P.Lint -> run_lint prog))

(* ------------------------------------------------------------------ *)
(* Attempt classification + retry loop                                 *)
(* ------------------------------------------------------------------ *)

type attempt =
  | Done of P.status * J.t option * string option
  | Expired of int  (* watchdog ms *)
  | Transient of string
  | Fatal of string

let classify ~timeout_ms ~faults spec =
  match run_once ~timeout_ms ~faults spec with
  | status, report, error -> Done (status, report, error)
  | exception Rt.Watchdog.Timeout ms -> Expired ms
  | exception (FI.Injected (FI.Worker_crash, _) as e) ->
      raise e (* supervisor-level fault: not ours to absorb *)
  | exception FI.Injected (_, msg) -> Transient msg
  | exception Repair.Driver.Unrepairable m -> Fatal ("unrepairable: " ^ m)
  | exception Repair.Diag.Fail d ->
      if d.Repair.Diag.stage = Repair.Diag.Budget then
        Transient (Repair.Diag.to_string d)
      else Fatal (Repair.Diag.to_string d)
  | exception e -> (
      match Repair.Diag.of_exn e with
      | Some d when d.Repair.Diag.stage = Repair.Diag.Budget ->
          Transient (Repair.Diag.to_string d)
      | Some d -> Fatal (Repair.Diag.to_string d)
      | None -> Fatal ("internal: " ^ Printexc.to_string e))

let span_names () =
  List.map (fun (e : Obs.Trace.event) -> e.name) (Obs.Trace.events ())

let backoff_cap_ms = 500

let execute ?cache ?(retries = 2) ?(backoff_ms = 10) ?default_timeout_ms
    (spec : P.job_spec) =
  let flags = spec.flags in
  let timeout_ms =
    match flags.timeout_ms with Some _ as t -> t | None -> default_timeout_ms
  in
  let retries = Option.value flags.retries ~default:retries in
  let cacheable = flags.faults = [] in
  let key = P.cache_key spec in
  let cache_hit =
    if cacheable then Option.bind cache (fun c -> Cache.find c key) else None
  in
  match cache_hit with
  | Some report ->
      {
        status = P.Sok;
        attempts = 0;
        cached = true;
        report = Some report;
        error = None;
        (* no pipeline stage ran: an empty span list is the proof *)
        spans = (if flags.trace then Some [] else None);
      }
  | None ->
      let finish ~attempt ~status ~report ~error =
        let spans = if flags.trace then Some (span_names ()) else None in
        if flags.trace then Obs.Trace.disable ();
        (match (status, report) with
        | P.Sok, Some r when cacheable ->
            Option.iter (fun c -> Cache.store c key r) cache
        | _ -> ());
        { status; attempts = attempt; cached = false; report; error; spans }
      in
      let rec go attempt =
        (* Per-job faults model transient faults: first attempt only, so
           a retry runs clean and terminal statuses are deterministic. *)
        let faults =
          if attempt = 1 then
            List.filter (fun f -> f <> FI.Worker_crash) flags.faults
          else []
        in
        if flags.trace then begin
          Obs.Trace.enable ();
          Obs.Trace.reset ()
        end;
        match classify ~timeout_ms ~faults spec with
        | Done (status, report, error) -> finish ~attempt ~status ~report ~error
        | Expired ms ->
            finish ~attempt ~status:P.Sdegraded ~report:None
              ~error:
                (Some
                   (Fmt.str
                      "wall-clock watchdog: job exceeded its %d ms timeout" ms))
        | Fatal msg ->
            finish ~attempt ~status:P.Sfailed ~report:None ~error:(Some msg)
        | Transient msg ->
            if attempt > retries then
              finish ~attempt ~status:P.Sfailed ~report:None
                ~error:(Some ("gave up after transient faults: " ^ msg))
            else begin
              let delay = min (backoff_ms lsl (attempt - 1)) backoff_cap_ms in
              if delay > 0 then Unix.sleepf (float_of_int delay /. 1000.);
              go (attempt + 1)
            end
      in
      go 1

let reply ~id (o : outcome) =
  P.job_reply ~id ~status:o.status ~attempts:o.attempts ~cached:o.cached
    ?report:o.report ?error:o.error ?spans:o.spans ()
