(* See islab.mli.  Absent chunks are represented by a shared zero-length
   array (a chunk is never legitimately empty: real chunks always have
   [1 lsl bits] slots), so presence is one [Array.length] test and absent
   reads touch no per-chunk storage at all. *)

let default_chunk = 4096
let max_chunk = 1 lsl 20

(* Smallest power of two >= max 8 n, as its exponent.  The floor of 8
   keeps small strided groups (see [chunk]) inside one chunk; the ceiling
   keeps the loop finite and a chunk allocatable. *)
let bits_for n =
  if n <= 0 then invalid_arg "Islab.create: chunk size must be positive";
  if n > max_chunk then
    invalid_arg
      (Printf.sprintf "Islab.create: chunk size exceeds %d slots" max_chunk);
  let b = ref 3 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

type t = {
  bits : int;  (** log2 slots per chunk *)
  mask : int;  (** [(1 lsl bits) - 1] *)
  fill : int;
  mutable dir : int array array;  (** chunk index -> chunk; [||] absent *)
  mutable chunks : int;
}

let no_chunk : int array = [||]

let create ?(chunk = default_chunk) ~fill () =
  let bits = bits_for chunk in
  { bits; mask = (1 lsl bits) - 1; fill; dir = [||]; chunks = 0 }

let chunk_slots t = 1 lsl t.bits
let n_chunks t = t.chunks
let words t = Array.length t.dir + (t.chunks lsl t.bits)

let get t i =
  if i < 0 then invalid_arg "Islab.get: negative index";
  let ci = i lsr t.bits in
  if ci >= Array.length t.dir then t.fill
  else
    let ch = Array.unsafe_get t.dir ci in
    if Array.length ch = 0 then t.fill else Array.unsafe_get ch (i land t.mask)

(* Materialize chunk [ci] (directory grown by doubling — the directory is
   one word per chunk, so its own overshoot is negligible). *)
let chunk_of t ci =
  if ci >= Array.length t.dir then begin
    let len = max (ci + 1) (2 * Array.length t.dir) in
    let nd = Array.make len no_chunk in
    Array.blit t.dir 0 nd 0 (Array.length t.dir);
    t.dir <- nd
  end;
  let ch = Array.unsafe_get t.dir ci in
  if Array.length ch <> 0 then ch
  else begin
    let ch = Array.make (1 lsl t.bits) t.fill in
    Array.unsafe_set t.dir ci ch;
    t.chunks <- t.chunks + 1;
    ch
  end

let set t i v =
  if i < 0 then invalid_arg "Islab.set: negative index";
  Array.unsafe_set (chunk_of t (i lsr t.bits)) (i land t.mask) v

let chunk t i =
  if i < 0 then invalid_arg "Islab.chunk: negative index";
  chunk_of t (i lsr t.bits)
