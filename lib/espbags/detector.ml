(* See detector.mli. *)

module Order = struct
  type t = Bags.t

  let create = Bags.create
  let task_begin b task = Bags.task_begin b ~task
  let task_end b task = Bags.task_end b ~task
  let finish_begin b finish = Bags.finish_begin b ~finish
  let finish_end b finish = Bags.finish_end b ~finish
  let srw_stride = 4
  let srw_parallel b row i = Bags.in_pbag b (Array.unsafe_get row i)
  let srw_store b row i = Array.unsafe_set row i (Bags.current_task b)

  let entry_stride = 1

  let record b l ~sid =
    let n = Array.unsafe_get l 0 + 1 in
    Array.unsafe_set l n ((Bags.current_task b lsl 31) lor sid);
    Array.unsafe_set l 0 n

  let scan_report = Bags.scan_report
  let retire_version = Bags.serial_version

  (* an entry of a forever-serial task can never be in a P-bag again *)
  let retire b l =
    let n = Array.unsafe_get l 0 in
    let j = ref 0 in
    for i = 1 to n do
      let e = Array.unsafe_get l i in
      if not (Bags.forever_serial b (e lsr 31)) then begin
        incr j;
        Array.unsafe_set l !j e
      end
    done;
    Array.unsafe_set l 0 !j;
    n - !j

  let stats b =
    ( [ ("uf_finds", Bags.n_finds b); ("uf_unions", Bags.n_unions b);
        ("scan_entries", Bags.n_scan_entries b) ],
      [] )
end

include Shadow.Make (Order)
