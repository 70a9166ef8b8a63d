(* See watchdog.mli. *)

exception Timeout of int

type state = {
  mutable armed : bool;
  mutable deadline_ns : int64;
  mutable ms : int;  (* the originally requested timeout, for Timeout *)
}

let key =
  Domain.DLS.new_key (fun () -> { armed = false; deadline_ns = 0L; ms = 0 })

let current () = Domain.DLS.get key

let arm ~ms =
  let s = current () in
  s.armed <- true;
  s.ms <- ms;
  s.deadline_ns <-
    Int64.add (Obs.Clock.now_ns ()) (Int64.mul (Int64.of_int ms) 1_000_000L)

let disarm () = (current ()).armed <- false

let poll s =
  if s.armed && Obs.Clock.now_ns () >= s.deadline_ns then begin
    (* fire once: the unwind must not re-trip in every Fun.protect
       finalizer between here and the job boundary *)
    s.armed <- false;
    raise (Timeout s.ms)
  end

let check () = poll (current ())

let with_timeout ~ms f =
  match ms with
  | None -> f ()
  | Some ms ->
      arm ~ms;
      Fun.protect ~finally:disarm f

let () =
  Printexc.register_printer (function
    | Timeout ms -> Some (Printf.sprintf "Rt.Watchdog.Timeout(%dms)" ms)
    | _ -> None)
