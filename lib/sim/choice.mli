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
    without formatting, and compared field by field with {!ident_equal},
    so event 5, thread 5 and a packet's fate never collide. *)
type ident =
  | Event_id of int  (** a pending engine event *)
  | Tid of int  (** a ready fiber *)
  | Fault_tag of {
      verb : string;
      kind : string;
      src : int;
      dst : int;
      seq : int;
    }  (** a medium verb applied to one packet *)

(** [e<id>], [t<tid>] or [verb:kind:src>dst:seq]: the ident column of a
    schedule file. *)
val ident_name : ident -> string

val ident_equal : ident -> ident -> bool

(** A hash that agrees with {!ident_equal}. *)
val ident_hash : ident -> int

(** A conflict key: which protocol state a decision touches, as one
    immediate int (a 4-bit tag over the node, address or id), so naming
    one allocates nothing and two compare with [=].  {!unknown}
    conflicts with every key. *)
type key = private int

val unknown : key

(** A machine's scheduler state: its dispatch and chunk events. *)
val node : int -> key

(** Everything that lands in a node's protocol state from the wire:
    deliveries into it, fault decisions on packets bound for it and its
    own retransmit timers. *)
val net : int -> key

val obj : int -> key
val tcb : int -> key
val lock : int -> key
val cond : int -> key
val fut : int -> key

(** The reliable transport's receiver-side dedup table, which senders'
    ack handling retires entries from. *)
val rpc_dedup : key

(** The server-side call table of request/reply dedup. *)
val rpc_calls : key

(** [node:3], [net:n2], [obj:<addr>], [tcb:7], [lock:<addr>],
    [cond:<token>], [fut:<id>], [rpc:dedup], [rpc:calls], and [""] for
    {!unknown}: the key column of a schedule file. *)
val key_name : key -> string

type candidate = {
  dom : domain;
  ident : ident;
  key : key;  (** static conflict key *)
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
  note_access : key -> unit;
      (** dynamic conflict keys observed while the chosen alternative
          executes (same-object invokes, same-lock acquires,
          same-descriptor coherence ops — the AmberSan happens-before
          vocabulary) *)
}
