(** The seed (pre-optimization) ESP-bags detectors: hashtable union-find
    bags, boxed-address shadow tables, per-access record allocation.

    Kept as the golden oracle for {!Detector}'s dense-shadow rewrite — the
    differential test suite holds the two to identical race multisets, and
    [bench detector] measures this implementation as the "before" side of
    its overhead numbers.  Do not optimize this module. *)

open Espbags

type t = private {
  mode : Trace.mode;
  monitor : Rt.Monitor.t;
  races : Race.t Tdrutil.Vec.t;
  mutable intern : Rt.Addr.Intern.t;
  mutable n_accesses : int;
  mutable n_locations : int;
  mutable n_skipped : int;
}

(** Races recorded so far, in report order. *)
val races : t -> Race.t list

val race_count : t -> int

(** No race reported? *)
val clean : t -> bool

(** Fresh seed detector of the given flavour. *)
val make : Trace.mode -> t

(** Seed analogue of {!Detector.detect}: same semantics, seed cost
    profile. *)
val detect :
  ?fuel:int ->
  ?keep:(bid:int -> idx:int -> bool) ->
  Trace.mode ->
  Mhj.Ast.program ->
  t * Rt.Interp.result
