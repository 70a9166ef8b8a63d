(* Shared timing policy for the benchmark harness.

   Since PR 5 the actual clock and the warmup/repeat policy live in
   [Obs.Clock] (lib/obs), which carries its own CLOCK_MONOTONIC stub so
   the runtime libraries do not depend on bechamel (a test-only dep).
   This module stays as the bench-local name so call sites keep reading
   [Clock.time_run]. *)

let now_ns = Obs.Clock.now_ns
let elapsed_s = Obs.Clock.elapsed_s
let time = Obs.Clock.time
let time_run = Obs.Clock.time_run

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

let measurable run base = Option.is_some (det_time run base)

(* [count] events per second of the detection time [run - base]. *)
let rate count run base =
  Option.map (fun d -> float_of_int count /. d) (det_time run base)

(* JSON for an optional rate or ratio; a present value that is not a
   positive finite number means a rate escaped the floor: fail. *)
let json_opt fmt = function
  | None -> "null"
  | Some v ->
      if not (Float.is_finite v && v > 0.) then
        failwith (Printf.sprintf "bench: emitted value %g is not a measurement" v);
      Printf.sprintf fmt v
