(** Binary-heap priority queue for simulation events.

    Entries are ordered by [(time, seq)]: earliest time first, and for equal
    times, insertion order (FIFO).  This stable tie-break is what makes the
    whole simulator deterministic, so it is part of the contract. *)

type 'a t

val create : unit -> 'a t

(** [add q ~time v] inserts [v] with timestamp [time].  Raises
    [Invalid_argument] if [time] is NaN. *)
val add : 'a t -> time:float -> 'a -> unit

(** {2 Non-allocating access}

    The engine's hot path: these neither allocate nor copy.  Each raises
    [Invalid_argument] on an empty queue, so test {!is_empty} first. *)

(** Timestamp of the earliest entry. *)
val min_time : 'a t -> float

(** Value of the earliest entry, without removing it. *)
val min_value : 'a t -> 'a

(** Remove the earliest entry and return its value. *)
val pop_min : 'a t -> 'a

(** Remove and return the earliest entry, or [None] when empty. *)
val pop : 'a t -> (float * 'a) option

val is_empty : 'a t -> bool
val length : 'a t -> int

(** Remove every entry. *)
val clear : 'a t -> unit

(** {2 Entries by position}

    Positions [0] to [length q - 1] name the queued entries in no
    particular order.  An {!add} or a pop renumbers them.  The engine's
    chooser step reads the values first and the time of the live ones
    only. *)

(** The value at a position.  Raises [Invalid_argument] on a position
    out of range. *)
val value_at : 'a t -> int -> 'a

(** The times by position: [Float.Array.get (times q) i] is the time of
    the entry at position [i], so position [0] holds {!min_time} when
    the queue is not empty.  Reading a float out of the array boxes
    nothing, where a call to {!min_time} returns a box unless it is
    inlined.  An {!add} may replace the array, so read it afresh after
    one; positions from [length q] on hold stale times. *)
val times : 'a t -> Float.Array.t
