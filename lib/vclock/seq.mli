(** Vector-clock race detectors for the depth-first interpreter:
    {!Espbags.Shadow.Make} over vector clocks ({!Clock}).  Same SRW/MRW
    flavours and the same races, record for record, as
    {!Espbags.Detector}.

    Under depth-first delivery both orderings compute precise
    may-happen-in-parallel for async-finish programs.  An access records
    its task index and that task's epoch; it is concurrent with the
    current step iff the current task's clock does not cover the epoch:

    - an entry by an ancestor (or an earlier epoch of the current task)
      was inherited at fork time — covered, ordered;
    - an entry by a task that ended but whose join finish is still open
      has not been merged anywhere the current task can see — not
      covered, concurrent (ESP-bags: in a P-bag);
    - once the finish ends, the accumulator merge makes the current task
      cover every joined epoch — ordered again (ESP-bags: P-bag unioned
      into the S-bag).

    SRW rows are 8 ints ([[task; sid; epoch; _]] per slot), MRW entries
    2 (the packed entry, then its epoch).  A task's clock is released
    the moment it ends (it is only read at its own forks and its
    end-merge), so clock footprint tracks live tasks.  Epoch GC: when a finish closes
    with only the root task live, every entry the root's clock covers at
    that moment is ordered before all future work (which forks from the
    root and inherits that clock), so MRW entries passing a snapshot of
    it are retired lazily per location. *)

module Order : sig
  include Espbags.Shadow.ORDER

  (** The current task's clock. *)
  val cur : t -> Clock.t
end

include Espbags.Shadow.S with type order = Order.t
