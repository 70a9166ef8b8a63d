(* See slab.mli — the boxed-element counterpart of Islab, for shadow
   tables whose slots are blocks (the MRW lists' int arrays).
   Absent chunks are zero-length arrays, as in Islab. *)

type 'a t = {
  bits : int;
  mask : int;
  fill : 'a;
  mutable dir : 'a array array;
  mutable n_chunks : int;
}

let create ?(chunk = Islab.default_chunk) ~fill () =
  let bits = Islab.bits_for chunk in
  { bits; mask = (1 lsl bits) - 1; fill; dir = [||]; n_chunks = 0 }

let n_chunks t = t.n_chunks
let words t = Array.length t.dir + (t.n_chunks lsl t.bits)

let get t i =
  if i < 0 then invalid_arg "Slab.get: negative index";
  let ci = i lsr t.bits in
  if ci >= Array.length t.dir then t.fill
  else
    let ch = Array.unsafe_get t.dir ci in
    if Array.length ch = 0 then t.fill else Array.unsafe_get ch (i land t.mask)

let set t i v =
  if i < 0 then invalid_arg "Slab.set: negative index";
  let ci = i lsr t.bits in
  if ci >= Array.length t.dir then begin
    let len = max (ci + 1) (2 * Array.length t.dir) in
    let nd = Array.make len [||] in
    Array.blit t.dir 0 nd 0 (Array.length t.dir);
    t.dir <- nd
  end;
  let ch = Array.unsafe_get t.dir ci in
  let ch =
    if Array.length ch <> 0 then ch
    else begin
      let ch = Array.make (1 lsl t.bits) t.fill in
      Array.unsafe_set t.dir ci ch;
      t.n_chunks <- t.n_chunks + 1;
      ch
    end
  in
  Array.unsafe_set ch (i land t.mask) v

(* Iterate over every slot ever materialized (in index order), absent
   chunks skipped — for end-of-run sweeps over touched locations. *)
let iter_present f t =
  Array.iter (fun ch -> if Array.length ch <> 0 then Array.iter f ch) t.dir
