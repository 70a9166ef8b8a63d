(** Growable arrays (amortized O(1) push).

    OCaml 5.1 predates [Dynarray]; this is the small subset the library
    needs.  Elements are stored densely in [0, length).  No
    dummy element is required: the backing array starts empty and uses the
    first pushed element as filler when growing. *)

type 'a t = { mutable data : 'a array; mutable len : int; hint : int }

(* [capacity] is a hint, not an allocation: without a dummy element the
   backing array cannot be pre-filled, so the hint is applied on the first
   push (which supplies the filler). *)
let create ?(capacity = 0) () = { data = [||]; len = 0; hint = capacity }

let length t = t.len

let is_empty t = t.len = 0

(* A vector's first backing array is a 2-slot literal (an inline
   allocation, no C call): most vectors stay small. *)
let grow t filler =
  let data =
    if Array.length t.data = 0 && t.hint <= 2 then [| filler; filler |]
    else Array.make (max t.hint (max 8 (2 * Array.length t.data))) filler
  in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

let unsafe_get t i = Array.unsafe_get t.data i

let unsafe_set t i x = Array.unsafe_set t.data i x

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let find_index p t =
  let rec go i =
    if i >= t.len then None else if p t.data.(i) then Some i else go (i + 1)
  in
  go 0

(** [ensure t n ~fill] grows [t] to length at least [n], filling new
    slots with [fill] — the primitive behind flat tables indexed by dense
    ids. *)
let ensure t n ~fill =
  if n > t.len then begin
    if n > Array.length t.data then begin
      let cap = max n (max t.hint (max 8 (2 * Array.length t.data))) in
      let data = Array.make cap fill in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end
    else Array.fill t.data t.len (n - t.len) fill;
    t.len <- n
  end

let clear t = t.len <- 0

let swap_remove t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.swap_remove";
  let x = t.data.(i) in
  t.len <- t.len - 1;
  t.data.(i) <- t.data.(t.len);
  x
