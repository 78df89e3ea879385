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

(** Stable identity of an alternative along a replayed prefix.  Built
    without formatting: only a fault tag (verb and packet) is a string,
    and it is built only when a fault-enabled chooser is installed.
    Structural equality tells the three apart, so event 5, thread 5 and
    a tag never collide. *)
type ident =
  | Event_id of int  (** a pending engine event *)
  | Tid of int  (** a ready fiber *)
  | Fault_tag of string  (** a medium verb applied to one packet *)

(** [e<id>], [t<tid>] or the tag: the ident column of a schedule file. *)
val ident_name : ident -> string

type candidate = {
  dom : domain;
  ident : ident;
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
