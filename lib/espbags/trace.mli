(** Race trace files: the exchange format between the detector and the
    analyzer (paper Appendix A).  Line-oriented text identifying race
    endpoints by S-DPST node ids, which are stable because the depth-first
    execution is deterministic.

    The line-level codecs are shared with {!Spill}, whose overflow files
    are traces of the spilled prefix; this module sits below the
    detectors, so it also owns the detector flavour {!mode}. *)

(** The detector flavour: {b SRW} keeps one reader and one writer per
    location, {b MRW} (the paper's §4.1 modification) keeps them all. *)
type mode = Srw | Mrw

val pp_mode : mode Fmt.t

(** ["SRW"] / ["MRW"], as written in a trace's [mode] line. *)
val mode_name : mode -> string

val magic : string

exception Parse_error of string * int
(** message, 1-based line number *)

(** @raise Parse_error on a malformed address *)
val addr_of_string : line:int -> string -> Rt.Addr.t

(** @raise Parse_error on an unknown kind *)
val kind_of_string : line:int -> string -> Race.kind

(** Decode the detectors' packed 2-bit race-kind code. *)
val kind_of_code : int -> Race.kind

(** Append one [race KIND ADDR SRC SINK] line. *)
val add_race_line :
  Buffer.t -> kind:Race.kind -> addr:Rt.Addr.t -> src:int -> sink:int -> unit

(** Render races to the trace format. *)
val to_string : mode:mode -> Race.t list -> string

(** Parse a trace against the S-DPST of a (re-executed) run of the same
    program.
    @raise Parse_error on malformed input or unresolvable ids. *)
val of_string : Sdpst.Node.tree -> string -> mode * Race.t list

val save : string -> mode:mode -> Race.t list -> unit

val load : string -> Sdpst.Node.tree -> mode * Race.t list
