(** Schedule-fuzzing differential validation.

    Race-free async-finish programs are deterministic (the paper's
    foundation), so after a repair claims race-freedom we can test the
    claim behaviorally: run the program under [schedules] deterministic
    fuzzed schedules ({!Engine.Fuzz}) and require every one to reproduce
    the sequential interpreter's observable behavior — the multiset of
    printed lines plus the final global state digest.  Print *order* is
    legitimately schedule-dependent even in race-free programs, so lines
    are compared as a sorted multiset.

    Each schedule [k] uses seed [seed + k]; a reported divergence is
    replayable with [tdrepair run --par=1 --seed <that seed>]. *)

type request = { schedules : int; seed : int; budget_ms : int option }

let default_request = { schedules = 10; seed = 1; budget_ms = None }

type divergence = { schedule_seed : int; detail : string }

type t = {
  requested : int;
  ran : int;
  skipped : int;
  divergences : divergence list;
  engine : Engine.stats option;
}

let ok t = t.divergences = [] && t.skipped = 0

let sorted_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.sort String.compare

type reference = { lines : string list; digest : string }

let reference (r : Rt.Interp.result) =
  { lines = sorted_lines r.output; digest = Rt.Value.digest_globals r.globals }

(* One fuzzed schedule against the reference observation.  Returns the
   divergence (if any) plus the engine's scheduler stats (absent when
   the schedule raised before producing a result). *)
let check_schedule ?fuel prog ~schedule_seed reference =
  match Engine.run ?fuel ~mode:(Engine.Fuzz { seed = schedule_seed }) prog with
  | r ->
      let d =
        if sorted_lines r.output <> reference.lines then
          Some { schedule_seed; detail = "printed output differs" }
        else if r.digest <> reference.digest then
          Some { schedule_seed; detail = "final global state differs" }
        else None
      in
      (d, Some r.Engine.stats)
  | exception e ->
      ( Some
          {
            schedule_seed;
            detail = Fmt.str "schedule raised: %s" (Printexc.to_string e);
          },
        None )

let check ?fuel ?budget_ms ?(schedules = 10) ?(seed = 1) ?reference:known
    (prog : Mhj.Ast.program) : t =
  let known =
    match known with Some r -> r | None -> reference (Rt.Interp.run ?fuel prog)
  in
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    match budget_ms with
    | None -> false
    | Some ms -> (Unix.gettimeofday () -. t0) *. 1000. >= float_of_int ms
  in
  let ran = ref 0 in
  let divergences = ref [] in
  let engine = ref None in
  (try
     for k = 0 to schedules - 1 do
       if over_budget () then raise Exit;
       let d, stats =
         check_schedule ?fuel prog ~schedule_seed:(seed + k) known
       in
       Option.iter (fun d -> divergences := d :: !divergences) d;
       Option.iter
         (fun s ->
           engine :=
             Some
               (match !engine with
               | None -> s
               | Some acc -> Engine.add_stats acc s))
         stats;
       incr ran
     done
   with Exit -> ());
  {
    requested = schedules;
    ran = !ran;
    skipped = schedules - !ran;
    divergences = List.rev !divergences;
    engine = !engine;
  }

let of_request ?fuel ?reference (r : request) prog =
  check ?fuel ?budget_ms:r.budget_ms ~schedules:r.schedules ~seed:r.seed
    ?reference prog

let pp ppf t =
  if t.skipped > 0 then
    Fmt.pf ppf "%d/%d fuzzed schedule(s) run (%d skipped under budget)" t.ran
      t.requested t.skipped
  else Fmt.pf ppf "%d/%d fuzzed schedule(s) run" t.ran t.requested;
  match t.divergences with
  | [] -> if t.ran > 0 then Fmt.pf ppf ", all match the sequential semantics"
  | ds ->
      Fmt.pf ppf ", %d divergence(s):" (List.length ds);
      List.iter
        (fun d ->
          Fmt.pf ppf "@\n  seed %d: %s (replay: run --par=1 --seed %d)"
            d.schedule_seed d.detail d.schedule_seed)
        ds
