(** Per-node object descriptor tables (paper §3.2–3.3).

    Every object has (conceptually) a descriptor at the same virtual
    address on every node.  A node's table holds only the descriptors that
    have been {e written} on that node; an absent entry models the
    "uninitialized descriptor on a zero-filled page": it reads as
    non-resident with a null forwarding address, which sends the request to
    the object's home node.

    A descriptor is one of:
    - [Resident] — the object (or an immutable replica) is on this node and
      may be invoked locally;
    - [Forwarded n] — the object left this node (or was learned to live
      elsewhere); [n] is the last known location, possibly stale;
    - [Replica m] — this node holds a read-only copy of a {e mutable}
      object whose master was last known at [m].  Read invocations may run
      against the copy; anything else chases toward [m].  (Immutable
      replicas use [Resident]: they are never invalidated.) *)

type state = Resident | Forwarded of int | Replica of int

(** One node's descriptors: a flat open-addressing table keyed by
    address.  Reads and writes allocate nothing: {!get} hands out shared
    [state option] values. *)
type table

val create_table : node:int -> table
val node : table -> int

(** The descriptor for [addr] on this node; [None] is the uninitialized
    case. *)
val get : table -> int -> state option

(** The setters raise [Invalid_argument] on a negative address or
    node. *)
val set_resident : table -> int -> unit

val set_forwarded : table -> int -> int -> unit

(** Mark this node as holding a read-only copy of a mutable object whose
    master is (last known) at the given node. *)
val set_replica : table -> int -> int -> unit

(** Remove the descriptor entirely (object deletion). *)
val clear : table -> int -> unit

val is_resident : table -> int -> bool
val is_replica : table -> int -> bool

(** Number of initialized descriptors on this node. *)
val entries : table -> int

(** Number of descriptor reads that found an uninitialized entry (the
    home-node fallback path). *)
val uninitialized_reads : table -> int
