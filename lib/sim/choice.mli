(** Controlled-nondeterminism interface.

    The simulator has three kinds of scheduling decision points:

    - {b Event}: which pending engine event fires next.  Normally the
      earliest by [(time, seq)]; a chooser may fire any pending event,
      which models arbitrary relative timing of deliveries and timers.
    - {b Fiber}: which ready fiber a machine dispatches next.  Normally
      FIFO (or the installed policy's order).
    - {b Fault}: whether the medium delivers, drops or duplicates a
      given retransmittable packet.  Normally driven by the seeded
      fault dice; under a chooser, faults become explorable branches.

    With no chooser installed every decision point takes its normal
    single answer and the seam is a dead branch — bit-identical to a
    build without it (verified by the determinism sweeps).  The
    schedule-space model checker ({!Modelcheck} in the analysis
    library) installs a chooser to drive depth-first systematic
    exploration with partial-order reduction. *)

type domain = Event | Fiber | Fault

val domain_name : domain -> string
val domain_of_name : string -> domain option

type candidate = {
  dom : domain;
  ident : string;
      (** stable identity of the alternative along a replayed prefix
          (event id, fiber tid, fault verb) *)
  key : string;
      (** static conflict key; [""] = unknown, conflicts with all *)
  label : string Lazy.t;
      (** human-readable description, forced only when a schedule is
          written *)
}

type t = {
  pick : domain -> candidate array -> int;
      (** called only when there are at least two candidates; must
          return a valid index into the array *)
  faults : bool;
      (** when false, fault choice points are not offered at all *)
  note_access : string -> unit;
      (** dynamic conflict keys observed while the chosen alternative
          executes (same-object invokes, same-lock acquires,
          same-descriptor coherence ops — the AmberSan happens-before
          vocabulary) *)
}
