(* See spill.mli.  The file is the trace line format (Trace) with the
   header written once at creation and records appended per flush — the
   [races N] summary line is omitted, which Trace.of_string tolerates, so
   a spill file doubles as a loadable trace of the spilled prefix. *)

type config = { path : string; cap : int }

let default_cap = 1 lsl 20

let config ?(cap = default_cap) path =
  if cap <= 0 then invalid_arg "Spill.config: cap must be positive";
  { path; cap }

type t = {
  path : string;
  cap_ints : int;  (** r_buf length threshold: records are 2 ints *)
  mode : Trace.mode;
  mutable oc : out_channel option;
  mutable n_spilled : int;  (** race records written out *)
}

let create (cfg : config) ~mode =
  {
    path = cfg.path;
    cap_ints = 2 * cfg.cap;
    mode;
    oc = None;
    n_spilled = 0;
  }

let path t = t.path

let cap_ints t = t.cap_ints

let n_spilled t = t.n_spilled

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
      (* append mode: [close] between flushes must not truncate records
         already on disk.  The first open of a run truncates: a stale
         file from an earlier run must not prepend its records. *)
      let fresh = t.n_spilled = 0 in
      let flags =
        if fresh then [ Open_wronly; Open_creat; Open_trunc ]
        else [ Open_wronly; Open_creat; Open_append ]
      in
      let oc = open_out_gen flags 0o644 t.path in
      if fresh then begin
        output_string oc (Trace.magic ^ "\n");
        output_string oc ("mode " ^ Trace.mode_name t.mode ^ "\n")
      end;
      t.oc <- Some oc;
      oc

let sid_mask = (1 lsl 31) - 1

(** Append every packed race record of [r_buf] to the file.  The caller
    clears the buffer (and invalidates any scan-replay memos ranging into
    it) afterwards. *)
let append t ~intern r_buf =
  let n = Tdrutil.Ivec.length r_buf in
  if n > 0 then begin
    let oc = channel t in
    let data = Tdrutil.Ivec.unsafe_data r_buf in
    let buf = Buffer.create 8192 in
    let i = ref 0 in
    while !i < n do
      let ss = Array.unsafe_get data !i
      and meta = Array.unsafe_get data (!i + 1) in
      Trace.add_race_line buf
        ~kind:(Trace.kind_of_code (meta land 3))
        ~addr:(Rt.Addr.Intern.of_id intern (meta lsr 2))
        ~src:(ss lsr 31) ~sink:(ss land sid_mask);
      if Buffer.length buf > 65536 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end;
      i := !i + 2
    done;
    Buffer.output_buffer oc buf;
    t.n_spilled <- t.n_spilled + (n / 2)
  end

(** Flush and release the file handle (the file remains readable and
    appendable). *)
let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
      close_out oc;
      t.oc <- None

(* Every [race] line of the file, in spill order, as [f ~line kind addr
   src sink] with the endpoints parsed. *)
let iter_lines t f =
  Option.iter Stdlib.flush t.oc;
  if t.n_spilled > 0 then begin
    let ic = open_in t.path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lnum = ref 0 in
        try
          while true do
            let line = input_line ic in
            incr lnum;
            match String.split_on_char ' ' (String.trim line) with
            | [ "race"; kind; addr; src; sink ] -> (
                match (int_of_string_opt src, int_of_string_opt sink) with
                | Some src, Some sink -> f ~line:!lnum kind addr src sink
                | _ ->
                    raise
                      (Trace.Parse_error ("malformed race endpoints", !lnum)))
            | [ "" ] | [ "mode"; _ ] | [ "races"; _ ] -> ()
            | [ m ] when m = Trace.magic -> ()
            | _ ->
                raise (Trace.Parse_error ("unrecognized line: " ^ line, !lnum))
          done
        with End_of_file -> ())
  end

(** Read the spilled records back, in spill order, as races of the
    steps of [tree].
    @raise Trace.Parse_error on a corrupted file *)
let records t ~tree : Race.t list =
  let races = ref [] in
  iter_lines t (fun ~line kind addr src sink ->
      races :=
        Race.make ~tree ~src ~sink
          ~addr:(Trace.addr_of_string ~line addr)
          ~kind:(Trace.kind_of_string ~line kind)
        :: !races);
  List.rev !races

(** The packed [(src lsl 31) lor sink] key of every spilled record, in
    spill order.
    @raise Trace.Parse_error on a corrupted file *)
let iter_keys t f =
  iter_lines t (fun ~line:_ _kind _addr src sink -> f ((src lsl 31) lor sink))
