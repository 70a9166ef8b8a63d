(** Process- and heap-level memory gauges for the scale benchmarks and
    the [detector.peak_rss_kb] metric.

    [peak_rss_kb] is the OS view ([getrusage]'s resident-set high-water
    mark): monotone over the process lifetime, so deltas across runs
    only show growth, never reuse.  [watermark] is the GC view (heap
    words sampled at every major collection): per-measurement, so it
    {e can} compare backends within one process, which is what the
    bench harness wants. *)

(** Resident-set high-water mark of this process, in kilobytes
    (0 if the OS refuses to say). *)
val peak_rss_kb : unit -> int

(** Current total heap size in words (cheap: {!Gc.quick_stat}). *)
val heap_words : unit -> int

(** Heap high-water tracking between two points, sampled at every major
    GC cycle plus at creation and reads. *)
type watermark

(** Start tracking: records the current heap size and installs a GC
    alarm that keeps the maximum seen. *)
val watermark : unit -> watermark

(** Highest heap size (words) seen so far, including right now. *)
val high : watermark -> int

(** Stop tracking (removes the GC alarm) and return the final high-water
    mark. *)
val dispose : watermark -> int
