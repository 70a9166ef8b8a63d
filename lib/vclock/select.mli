(** Backend selection: [--backend=auto] picks ESP-bags or vector clocks
    from syntactic workload features (task fan-out shape, async nesting
    depth) and explains the choice, and {!detect} runs sequential
    detection under either pick behind one result type. *)

type choice = [ `Espbags | `Vclock ]

val pp_choice : choice Fmt.t

type features = {
  n_async : int;
  n_finish : int;
  n_loop_async : int;  (** asyncs spawned directly from a loop body *)
  max_async_depth : int;  (** deepest syntactic async nesting *)
}

val features : Mhj.Ast.program -> features

(** Pick a backend; the string is the human-readable reason, reported by
    the CLI and logged in [report.metrics]. *)
val choose : Mhj.Ast.program -> choice * string

(** Resolve a [--backend] value: explicit picks pass through with an
    empty reason, [`Auto] is {!choose}. *)
val resolve :
  [< `Espbags | `Vclock | `Auto ] -> Mhj.Ast.program -> choice * string

(** One sequential detection run, whichever backend ran it. *)
type detection = {
  races : Espbags.Race.t list Lazy.t;  (** in report order *)
  pairs : Espbags.Race.Pairs.t Lazy.t;
      (** their distinct step pairs, read off the packed race buffer
          without building the records *)
  stats : (string * int) list Lazy.t;
      (** the backend's ["detector."] keys (a pass over the shadow) *)
  n_accesses : int;
  n_locations : int;
  n_skipped : int;
  n_spilled : int;
  result : Rt.Interp.result;
}

(** {!Espbags.Detector.detect} or {!Seq.detect}, same arguments; the two
    report the same races. *)
val detect :
  backend:choice ->
  ?fuel:int ->
  ?keep:(bid:int -> idx:int -> bool) ->
  ?chunk:int ->
  ?spill:Espbags.Spill.config ->
  Espbags.Trace.mode ->
  Mhj.Ast.program ->
  detection
