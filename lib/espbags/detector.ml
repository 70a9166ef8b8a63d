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

  (* no epochs: every location shares this never-written empty vector *)
  let no_epochs = Tdrutil.Ivec.create ()
  let new_epochs () = no_epochs

  let record b l _ ~sid =
    Tdrutil.Ivec.push l ((Bags.current_task b lsl 31) lor sid)

  let scan_report b l _ ~out ~sink ~meta = Bags.scan_report b l ~out ~sink ~meta
  let retire_version = Bags.serial_version

  (* an entry of a forever-serial task can never be in a P-bag again *)
  let retire b l _ =
    let n = Tdrutil.Ivec.length l in
    let data = Tdrutil.Ivec.unsafe_data l in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let e = Array.unsafe_get data i in
      if not (Bags.forever_serial b (e lsr 31)) then begin
        Array.unsafe_set data !j e;
        incr j
      end
    done;
    Tdrutil.Ivec.truncate l !j;
    n - !j

  let stats b =
    ( [ ("uf_finds", Bags.n_finds b); ("uf_unions", Bags.n_unions b);
        ("scan_entries", Bags.n_scan_entries b) ],
      [] )
end

include Shadow.Make (Order)
