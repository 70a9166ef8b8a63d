(** Dense vector clocks over task indices.

    A clock maps a dense task index to that task's last-known epoch; a
    missing slot reads as 0 ("no knowledge").  The async-finish
    maintenance discipline (DESIGN.md §14):

    - fork: the child's clock is a copy of the parent's with its own
      fresh component set to 1; the parent then increments its own
      component, so later parent accesses are distinguishable from the
      ones the child inherited;
    - task end: the ended task's clock is folded (pointwise max) into
      its innermost enclosing finish's accumulator;
    - finish end: the accumulator folds into the continuing task's
      clock, ordering every joined access before the continuation.

    An access recorded as [(task t, epoch e)] — where [e] was [C_t[t]]
    at record time — happens-before the task currently holding clock
    [c] iff [get c t >= e]; otherwise the two are concurrent.

    Arrays grow lazily (doubling), so a clock's cost is proportional to
    the highest task index it has actually learned about, not the total
    task count.  Clocks are not thread-safe; each is owned by one task. *)

type t = { mutable v : int array }

let create () = { v = [||] }

(** Number of slots physically allocated ([get] beyond this is 0). *)
let length c = Array.length c.v

let get c i = if i < Array.length c.v then Array.unsafe_get c.v i else 0

let grow c n =
  let cap = max n (2 * Array.length c.v) in
  let bigger = Array.make cap 0 in
  Array.blit c.v 0 bigger 0 (Array.length c.v);
  c.v <- bigger

let set c i x =
  if i >= Array.length c.v then grow c (i + 1);
  Array.unsafe_set c.v i x

let incr c i = set c i (get c i + 1)

let copy c = { v = Array.copy c.v }

(** Pointwise max of [c] into [into]. *)
let merge ~into c =
  let n = Array.length c.v in
  if n > Array.length into.v then grow into n;
  for i = 0 to n - 1 do
    let x = Array.unsafe_get c.v i in
    if x > Array.unsafe_get into.v i then Array.unsafe_set into.v i x
  done

(* Perf escape hatch for batched loops (see clock.mli). *)
let data c = c.v

(** [covers c i e]: does the holder of [c] already know of task [i]'s
    epoch [e] (i.e. is the access ordered before the holder)? *)
let covers c i e = get c i >= e
