(** The ESP-bags race detectors: {!Shadow.Make} over union-find bags.

    {b SRW} (Single Reader-Writer) is the original algorithm of Raman et
    al.: one writer and one reader per location, so a run reports a subset
    of the races (none iff the input is race-free).  {b MRW} (Multiple
    Reader-Writer) is the paper's §4.1 modification: all readers and
    writers are kept, so every potential race for the input is reported
    in a single run.

    A recorded access is its task's dense {!Bags} index; it is concurrent
    with the current step iff that task is in a P-bag.  SRW rows are 4
    ints ([[task; sid]] per slot), MRW entries 1 (no epoch), and epoch GC
    retires the entries of {!Bags.forever_serial} tasks. *)

include Shadow.S with type order = Bags.t
