(** Pluggable ready-queue disciplines.

    Amber lets an application replace the node scheduler at runtime
    (§2.1 of the paper); this record is the interface such replacement
    schedulers implement.  The queue holds any runnable value — the machine
    model instantiates it with thread control blocks. *)

type 'a t = {
  name : string;
  enqueue : 'a -> unit;
  pop : unit -> 'a;
      (** remove and return the next entry; raises [Invalid_argument] on
          an empty queue, so test [length] first.  Returning the entry
          itself, not an option, makes a dispatch allocate nothing here. *)
  remove : ('a -> bool) -> int;
      (** remove all entries matching the predicate; returns how many *)
  length : unit -> int;
}

(** First-in first-out (the default Amber discipline). *)
val fifo : unit -> 'a t

(** Last-in first-out ("hot" threads first; favors cache affinity). *)
val lifo : unit -> 'a t

(** Highest priority first; FIFO among equals.  [priority_of] is sampled at
    enqueue time. *)
val by_priority : priority_of:('a -> int) -> unit -> 'a t
