(** The options of one detect or repair job, and the one codec table
    every front end derives from: the CLI flags (a generic fold in
    [bin/]), the serve protocol's ["flags"] object ({!of_json},
    {!to_json}) and the result-cache key ({!key}).

    Each row of the table gives the field's JSON key (the CLI flag is the
    key with [_] turned into [-]), its help text, a typed value kind with
    its range check, the commands it applies to, and whether it can change
    a job's result.  {!fields} names every field of {!t} in its pattern,
    so under warning 9 a field added without a row does not compile. *)

type backend = [ `Espbags | `Vclock | `Auto ]

(** Which rewrite family repairs the program (see {!Strategy}). *)
type strategy = [ `Finish | `Isolated | `Elide | `Chunk | `Tournament ]

(** How finish insertion searches: every NS-LCA group of a detection run
    at once, or the paper's §6.1 live-S-DPST loop. *)
type placement = [ `Batch | `Incremental ]

type t = {
  mode : Espbags.Detector.mode;
  backend : backend;
  strategy : strategy;
  placement : placement;
  static_prune : bool;
  static_verify : bool;
  budgets : Guard.budgets;
  shadow_chunk : int option;  (** chunked shadow-table slab size *)
  spill : string option;  (** race-record spill file *)
  sets : (string * int) list;
      (** int-global test-input overrides, applied where the program is
          loaded ({!apply_sets}) *)
}

(** MRW ESP-bags, finish insertion in batch, no pruning or verification,
    unlimited budgets, default shadow chunks, no spill, no overrides. *)
val default : t

type command = Detect | Repair

(** The integers [lo..hi]; a non-empty [noun] leads {!out_of_range}'s
    message. *)
type range = { lo : int; hi : int; noun : string }

(** Why [n] is outside the range, or [None]: "must be non-negative"
    below a [lo] of 0, "must be positive" below 1, "must be at least
    LO" below another, "must be at most HI" above.  The CLI says it as
    {!of_json} does. *)
val out_of_range : range -> int -> string option

type _ kind =
  | Flag : bool kind  (** a CLI switch; a JSON boolean *)
  | Enum : (string * 'a) list -> 'a kind  (** one of the named values *)
  | Int : range -> int option kind  (** an optional integer in range *)
  | Path : string option kind  (** an optional file path *)
  | Sets : (string * int) list kind
      (** repeatable [NAME=INT] on the CLI; an object of
          integers in JSON *)

type 'a row = {
  key : string;
  docv : string;  (** the CLI metavariable; unused by {!Flag} rows *)
  doc : string;  (** CLI help, in cmdliner markup *)
  kind : 'a kind;
  commands : command list;  (** the CLI commands that take the flag *)
  semantic : bool;  (** can change a job's result, so {!key} covers it *)
  set : 'a -> t -> t;
}

(** A row with the value it reads from one record. *)
type field = Field : 'a row * 'a -> field

(** The codec table: one row per field of [t], in a fixed order, each
    paired with [t]'s value.  [fields default] gives every row's
    default. *)
val fields : t -> field list

(** The rows that front ends take one at a time. *)
module Row : sig
  val strategy : strategy row
  val sets : (string * int) list row
end

(** The CLI flag of a row: its key with [_] turned into [-]. *)
val flag_name : _ row -> string

(** Decode a ["flags"] object: absent keys keep their default.  An
    unknown key, an ill-typed value or an out-of-range value is an error
    that names the key. *)
val of_json : Obs.Json.t -> (t, string) result

(** The canonical encoding: every row, [None] values left out.
    [of_json (to_json o) = Ok o]. *)
val to_json : t -> Obs.Json.t

(** Hex digest of the canonical encoding of the semantic rows. *)
val key : t -> string

val pp_strategy : strategy Fmt.t

(** Reject combinations no run can honour.  A non-finish repair strategy
    cannot report a static verdict or a spill count, so [repair] with
    [static_verify] or [spill] needs strategy [finish]. *)
val validate : command -> t -> (unit, string) result

(** Apply int-global overrides ({!Mhj.Transform.set_global_int}).
    @raise Diag.Fail (typecheck stage) naming a missing or non-int
    global. *)
val apply_sets : (string * int) list -> Mhj.Ast.program -> Mhj.Ast.program
