(** Growable vectors of unboxed [int]s (see ivec.mli). *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 0) () = { data = Array.make (max capacity 0) 0; len = 0 }

let make ~len fill = { data = Array.make (max len 1) fill; len }

let length t = t.len

let is_empty t = t.len = 0

let grow t want =
  let cap = max 8 (max want (2 * Array.length t.data)) in
  let data = Array.make cap 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

(* Append the slice [lo, hi) of [t] to the end of [t]: the detector's
   scan-replay path re-emits a previously recorded run of race records
   with one memcpy instead of re-scanning the shadow. *)
let append_slice t lo hi =
  let k = hi - lo in
  if k > 0 then begin
    let n = t.len + k in
    if n > Array.length t.data then grow t n;
    Array.blit t.data lo t.data t.len k;
    t.len <- n
  end

(* One capacity check and one call for a 2-int record: the detector's
   race buffer is hot enough that two [push] calls show up in profiles. *)
let push2 t a b =
  let n = t.len + 2 in
  if n > Array.length t.data then grow t n;
  let data = t.data in
  Array.unsafe_set data t.len a;
  Array.unsafe_set data (t.len + 1) b;
  t.len <- n

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Ivec.set";
  Array.unsafe_set t.data i x

let unsafe_get t i = Array.unsafe_get t.data i

(* Perf escape hatch for batched loops (see ivec.mli). *)
let unsafe_data t = t.data

let unsafe_set t i x = Array.unsafe_set t.data i x

let ensure t n ~fill =
  if n > t.len then begin
    if n > Array.length t.data then grow t n;
    Array.fill t.data t.len (n - t.len) fill;
    t.len <- n
  end

let top t =
  if t.len = 0 then invalid_arg "Ivec.top";
  Array.unsafe_get t.data (t.len - 1)

let pop t =
  if t.len = 0 then invalid_arg "Ivec.pop";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list xs =
  let t = create ~capacity:(List.length xs) () in
  List.iter (push t) xs;
  t

let clear t = t.len <- 0

(* Shrink the backing array to the live length: after a [clear] of a
   long-lived vector, the freed capacity would otherwise be pinned until
   the next growth. *)
let compact t =
  if Array.length t.data > t.len then t.data <- Array.sub t.data 0 t.len
