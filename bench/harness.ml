(* What every bench sweep shares: the noise model of the timed sweeps,
   the environment knobs, the race-identity check and the one writer of
   BENCH_<name>.json.  No other bench file reads the environment or
   formats JSON; a sweep builds its report as an [Obs.Json.t] and hands
   it to [write]. *)

module J = Obs.Json

(* The noise model of the detection-overhead sweeps (`bench detector`,
   `bench scale`).  Each configuration is timed in interleaved rounds and
   keeps its fastest.  A detection time is the difference of two fastest
   rounds — instrumented run minus the uninstrumented baseline — and
   counts as a measurement only when it clears the noise floor: 0.3 ms
   and 5% of the baseline (on interpreter-bound programs the baseline's
   own run-to-run variance is of that order).  Below the floor there is
   no number: rates and ratios built on it are [None] (JSON [null]),
   never a clamped or sub-floor value. *)
type sample = { mutable best : float }

let sample () = { best = infinity }

let record s t = if t < s.best then s.best <- t

let det_time run base =
  let d = run.best -. base.best in
  if d >= Float.max 3e-4 (0.05 *. base.best) then Some d else None

(* [count] events per second of the detection time [run - base]. *)
let rate count run base =
  Option.map (fun d -> float_of_int count /. d) (det_time run base)

(* A knob: [default] when unset or unparsable. *)
let env parse name default =
  Option.value ~default (Option.bind (Sys.getenv_opt name) parse)

let env_int = env int_of_string_opt

let env_float = env float_of_string_opt

(* The rows of [all] that TDR_BENCH_SUITE (comma-separated names) names;
   every row when it is unset or empty.  A filter that matches none of
   the sweep's rows fails the sweep rather than write an empty table. *)
let suite ~sweep name all =
  match Sys.getenv_opt "TDR_BENCH_SUITE" with
  | None | Some "" -> all
  | Some spec -> (
      let names = String.split_on_char ',' spec in
      match List.filter (fun x -> List.mem (name x) names) all with
      | [] ->
          failwith
            (Fmt.str "%s bench: TDR_BENCH_SUITE=%S matches no row (have: %s)"
               sweep spec
               (String.concat ", " (List.map name all)))
      | xs -> xs)

(* Two race-record lists of one deterministic execution must be equal;
   a difference is a detector bug, and the sweep aborts rather than
   print a corrupt table. *)
let identical ~sweep row what a b =
  if a <> b then
    failwith
      (Fmt.str "%s bench: %s: %s race records differ (%d vs %d)" sweep row
         what (List.length a) (List.length b))

(* A rate or ratio as JSON: [None] (below the noise floor) is null.  A
   present value that is not positive and finite means a rate escaped
   the floor — and Obs.Json would write NaN or infinity as null — so it
   fails the sweep. *)
let measured = function
  | None -> J.Null
  | Some v ->
      if not (Float.is_finite v && v > 0.) then
        failwith
          (Printf.sprintf "bench: emitted value %g is not a measurement" v);
      J.Float v

let ratio v = measured (Some v)

(* One top-level key per line and one row of a list per line, so a
   regenerated file diffs row by row; keys sorted at every level, as
   Obs.Json sorts them inside a row. *)
let layout = function
  | J.Obj kvs ->
      let value = function
        | J.List (_ :: _ as rows) ->
            "[\n    " ^ String.concat ",\n    " (List.map J.to_string rows)
            ^ "\n  ]"
        | v -> J.to_string v
      in
      let field (k, v) = "  " ^ J.to_string (J.Str k) ^ ": " ^ value v in
      let kvs = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
      "{\n" ^ String.concat ",\n" (List.map field kvs) ^ "\n}\n"
  | j -> J.to_string j ^ "\n"

(* TDR_BENCH_OUT names the directory BENCH_<name>.json goes to.  A full
   sweep writes into the current directory when it is unset; a quick
   sweep (an @ci variant, which must not litter the build directory)
   writes only when it is set; "-" writes nothing. *)
let write ~quick name report =
  let dir =
    match Sys.getenv_opt "TDR_BENCH_OUT" with
    | Some "-" -> None
    | Some dir -> Some dir
    | None -> if quick then None else Some Filename.current_dir_name
  in
  Option.iter
    (fun dir ->
      let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (layout report));
      Fmt.pr "[%s data written to %s]@." name path)
    dir
