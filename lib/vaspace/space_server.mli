(** The address-space server (paper §3.1).

    At startup each node receives a private pool of regions for its local
    heap; the rest of the heap segment is held back and handed out on
    demand as nodes exhaust their pools.  The server is the ground truth
    for region → home-node ownership, which home-node resolution reads
    when an object's descriptor is uninitialized (§3.3).

    This module is pure bookkeeping; the cost of talking to the server is
    charged by the Amber kernel, which performs the conversation over
    RPC. *)

type t

(** Raised by {!grant} when every region of the heap segment
    ([Layout.max_regions]) is assigned: [node] asked for one more, and
    [regions] were granted so far.  Regions are never returned, and a
    joined thread's segment is never freed, so a long enough run of
    thread starts ends here. *)
exception Exhausted of { node : int; regions : int }

(** [create ~nodes ~initial_per_node ()] assigns the first
    [nodes * initial_per_node] regions round-robin-free: node [i] gets the
    contiguous run [i*initial_per_node ..< (i+1)*initial_per_node]. *)
val create : nodes:int -> ?initial_per_node:int -> unit -> t

(** Node hosting the server itself (node 0 by convention). *)
val server_node : t -> int

(** Regions assigned to [node] at startup. *)
val initial_regions : t -> int -> Region.t list

(** Grant a fresh region to [node].  Raises {!Exhausted} when the
    address space is exhausted. *)
val grant : t -> node:int -> Region.t

(** Ground-truth owner of the region containing a heap address, or [None]
    if the region is not yet assigned. *)
val owner_of_addr : t -> int -> int option

(** Regions assigned so far. *)
val regions_assigned : t -> int
