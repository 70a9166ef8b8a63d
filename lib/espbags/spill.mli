(** Disk spill of detector race-record overflow.

    On heavily racy scale inputs the packed race buffer is the
    detector's dominant allocation (MRW reports every pair), so past a
    configurable record cap the detectors drain it to a file instead of
    growing without bound.  The file is the {!Trace} line format (header
    once, then one [race] line per record, no [races N] summary — which
    {!Trace.of_string} tolerates), so a spill file is itself a loadable
    trace of the spilled prefix.  [races]/[race_count] on a spilling
    detector transparently stitch the spilled prefix back in front of
    the in-memory suffix, in original report order. *)

type config = { path : string; cap : int  (** max in-memory records *) }

(** @raise Invalid_argument for a non-positive cap *)
val config : ?cap:int -> string -> config

type t

(** [create cfg ~mode] is a fresh sink; the file is only created
    (truncating any stale one) on the first overflow. *)
val create : config -> mode:Trace.mode -> t

val path : t -> string

(** The overflow threshold as an [r_buf] {e length} (2 ints per record). *)
val cap_ints : t -> int

(** Race records written out so far. *)
val n_spilled : t -> int

(** Append every packed race record of [r_buf] to the file.  The caller
    clears the buffer (and invalidates any scan-replay memos ranging
    into it) afterwards. *)
val append : t -> intern:Rt.Addr.Intern.t -> Tdrutil.Ivec.t -> unit

(** Flush and release the file handle (the file remains readable, and a
    later [append] reopens it without truncating). *)
val close : t -> unit

(** Read the spilled records back, in spill order, as races of the
    steps of [tree].
    @raise Trace.Parse_error on a corrupted file *)
val records : t -> tree:Sdpst.Node.tree -> Race.t list

(** The packed [(src lsl 31) lor sink] step-id key of every spilled
    record, in spill order, without building the records.
    @raise Trace.Parse_error on a corrupted file *)
val iter_keys : t -> (int -> unit) -> unit
