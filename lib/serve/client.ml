(* See client.mli. *)

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  (* bytes [0, scan) of [buf] are known newline-free, so each incoming
     chunk is scanned once — a reply line is read in linear time even
     when it is tens of MB (a detect report lists every race) *)
  mutable scan : int;
  mutable eof : bool;
}

let of_fd fd = { fd; buf = Buffer.create 256; scan = 0; eof = false }

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  of_fd fd

let send t line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring t.fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let send_json t j = send t (Obs.Json.to_string j)

let find_newline buf ~from =
  let len = Buffer.length buf in
  let i = ref from in
  while !i < len && Buffer.nth buf !i <> '\n' do incr i done;
  if !i < len then Some !i else None

let rec recv t =
  match find_newline t.buf ~from:t.scan with
  | Some i ->
      let line = Buffer.sub t.buf 0 i in
      let rest = Buffer.sub t.buf (i + 1) (Buffer.length t.buf - i - 1) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.scan <- 0;
      Some line
  | None ->
      t.scan <- Buffer.length t.buf;
      if t.eof then None
      else begin
        let bytes = Bytes.create 65536 in
        (match Unix.read t.fd bytes 0 65536 with
        | 0 -> t.eof <- true
        | n -> Buffer.add_subbytes t.buf bytes 0 n
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        recv t
      end

let request t line =
  send t line;
  recv t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
