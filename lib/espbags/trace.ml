(** Race trace files.

    The paper's artifact separates the detector (which writes trace files
    of all detected races) from the analyzer (which reads them back and
    computes finish placements).  This module implements that exchange
    format: a line-oriented text file identifying race endpoints by their
    S-DPST node ids, which are reproducible because the depth-first
    execution is deterministic.  {!Spill} appends detector overflow in the
    same line format, so the codecs and the detector flavour live here,
    below both. *)

type mode = Srw | Mrw

let mode_name = function Srw -> "SRW" | Mrw -> "MRW"

let pp_mode ppf m = Fmt.string ppf (mode_name m)

let magic = "tdrace-trace-v1"

exception Parse_error of string * int  (** message, 1-based line number *)

let string_of_addr = function
  | Rt.Addr.Global g -> "g:" ^ g
  | Rt.Addr.Cell (a, i) -> Fmt.str "c:%d:%d" a i

let addr_of_string ~line s =
  match String.split_on_char ':' s with
  | [ "g"; name ] -> Rt.Addr.Global name
  | [ "c"; a; i ] -> (
      match (int_of_string_opt a, int_of_string_opt i) with
      | Some a, Some i -> Rt.Addr.Cell (a, i)
      | _ -> raise (Parse_error ("malformed cell address " ^ s, line)))
  | _ -> raise (Parse_error ("malformed address " ^ s, line))

let string_of_kind = function
  | Race.Write_read -> "WR"
  | Race.Read_write -> "RW"
  | Race.Write_write -> "WW"

let kind_of_string ~line = function
  | "WR" -> Race.Write_read
  | "RW" -> Race.Read_write
  | "WW" -> Race.Write_write
  | s -> raise (Parse_error ("unknown race kind " ^ s, line))

(* The detectors' packed 2-bit race-kind codes (the low bits of a packed
   record's meta word). *)
let kind_of_code = function
  | 0 -> Race.Write_read
  | 1 -> Race.Read_write
  | _ -> Race.Write_write

let add_race_line buf ~kind ~addr ~src ~sink =
  Buffer.add_string buf
    (Fmt.str "race %s %s %d %d\n" (string_of_kind kind) (string_of_addr addr)
       src sink)

(** Render races to the trace format. *)
let to_string ~mode (races : Race.t list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Fmt.str "mode %a\n" pp_mode mode);
  Buffer.add_string buf (Fmt.str "races %d\n" (List.length races));
  List.iter
    (fun (r : Race.t) ->
      add_race_line buf ~kind:r.kind ~addr:r.addr
        ~src:r.src ~sink:r.sink)
    races;
  Buffer.contents buf

(** Parse a trace against the S-DPST of the (re-executed) program run that
    produced it; every node id must be a live step of it.
    @raise Parse_error on malformed input or unresolvable/non-step ids. *)
let of_string (tree : Sdpst.Node.tree) (s : string) :
    mode * Race.t list =
  let live = Bytes.make tree.Sdpst.Node.next_id '\000' in
  Sdpst.Node.iter_tree (fun n -> Bytes.set live n '\001') tree;
  let resolve ~line id =
    if id < 0 || id >= Bytes.length live || Bytes.get live id = '\000' then
      raise (Parse_error (Fmt.str "unknown node id %d" id, line))
    else if not (Sdpst.Node.is_step tree id) then
      raise (Parse_error (Fmt.str "node %d is not a step" id, line))
    else id
  in
  let lines = String.split_on_char '\n' s in
  match lines with
  | m :: rest when String.trim m = magic ->
      let mode = ref Mrw in
      let races = ref [] in
      List.iteri
        (fun i line ->
          let lnum = i + 2 in
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] -> ()
          | [ "mode"; "SRW" ] -> mode := Srw
          | [ "mode"; "MRW" ] -> mode := Mrw
          | [ "races"; _n ] -> ()
          | [ "race"; kind; addr; src; sink ] -> (
              match (int_of_string_opt src, int_of_string_opt sink) with
              | Some src, Some sink ->
                  races :=
                    Race.make ~tree ~src:(resolve ~line:lnum src)
                      ~sink:(resolve ~line:lnum sink)
                      ~addr:(addr_of_string ~line:lnum addr)
                      ~kind:(kind_of_string ~line:lnum kind)
                    :: !races
              | _ ->
                  raise (Parse_error ("malformed race endpoints", lnum)))
          | _ -> raise (Parse_error ("unrecognized line: " ^ line, lnum)))
        rest;
      (!mode, List.rev !races)
  | _ -> raise (Parse_error ("bad magic; not a tdrace trace file", 1))

let save path ~mode races =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~mode races))

let load path tree =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string tree (really_input_string ic n))
