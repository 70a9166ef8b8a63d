external peak_rss_kb_raw : unit -> int = "tdr_obs_peak_rss_kb" [@@noalloc]

(* Linux ru_maxrss is KB.  If a port ever reports bytes (macOS), values
   come out ~1000x too large; normalize heuristically so gauges stay
   comparable. *)
let peak_rss_kb () =
  let v = peak_rss_kb_raw () in
  if v > 1 lsl 36 then v / 1024 else v

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

type watermark = { mutable high : int; mutable alarm : Gc.alarm option }

let watermark () =
  let w = { high = 0; alarm = None } in
  let sample () =
    let h = heap_words () in
    if h > w.high then w.high <- h
  in
  sample ();
  w.alarm <- Some (Gc.create_alarm sample);
  w

let high w =
  let h = heap_words () in
  if h > w.high then w.high <- h;
  w.high

let dispose w =
  Option.iter Gc.delete_alarm w.alarm;
  w.alarm <- None;
  high w
