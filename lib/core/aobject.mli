(** Amber objects: passive entities with private state and public
    operations, named by a global virtual address (paper §2, §3.2).

    The ['a] parameter is the type of the object's representation (the
    "private data").  Location fields on this record are the simulator's
    {e ground truth}; the runtime protocol must reach its decisions through
    {!Descriptor} tables alone, and tests compare the two. *)

type 'a t = {
  addr : int;  (** global virtual address: identity *)
  name : string;
  size : int;  (** representation size in bytes; drives move/copy cost *)
  home : int;  (** creating node (derivable from [addr]'s region) *)
  mutable location : int;  (** current node (for immutables: master copy) *)
  mutable immutable_ : bool;
  mutable replicas : int list;
      (** nodes holding copies (excludes [location]).  For immutables these
          are permanent; for mutables they are read replicas that the
          write-invalidate protocol recalls before any write. *)
  mutable epoch : int;
      (** version counter, bumped at the master when a Write/Atomic
          invocation of a mutable object completes; replica snapshots
          record the epoch they were taken at *)
  mutable repl_gen : int;
      (** monotonic counter stamping read-replica grants of a mutable
          object; each {!Coherence.install} capture takes a fresh value *)
  mutable grants : (int * int) list;
      (** [(node, generation)] of the live replica grant per node, kept in
          sync with [replicas] for mutable objects.  Reliable-mode
          datagrams are retransmitted independently, so a stale copy from
          a recalled grant can arrive after a re-grant to the same node;
          the generation lets delivery tell the two apart. *)
  mutable writers : int;
      (** Write/Atomic invocations currently executing at the master.
          {!Coherence.install} refuses to capture a snapshot while
          non-zero: a mid-write capture would ship a torn state. *)
  mutable rcopies : (int * int * 'a) list;
      (** mutable-object replica snapshots: (node, install epoch, value) *)
  mutable attached : any list;  (** objects attached to this one (§2.3) *)
  mutable parent : any option;  (** object this one is attached to *)
  mutable win_local : int;
      (** invocations executed at the master by threads already resident
          there, within the current balance observation window *)
  mutable win_remote : (int * int) list;
      (** [(origin_node, count)] of invocations that had to travel, within
          the current window.  The rebalancer reads these to find an
          object's dominant caller; {!reset_window_any} clears them each
          observation cycle.  Zero-cost bookkeeping: no packets, no CPU. *)
  mutable lost : bool;
      (** the only copy lived on a node that crashed without restarting;
          every further access fails crisply with {!Object_lost} *)
  mutable state : 'a;
}

and any = Any : 'a t -> any

(** Raised on any access to an object whose sole copy died with a crashed
    node (no live replica existed to promote). *)
exception Object_lost of { addr : int; name : string }

(** Raised by a chase whose walk passes the forwarding-hop budget
    without reaching the object: stale descriptors formed a cycle or an
    overlong chain.  [trail] names the nodes the walk left behind, in
    order. *)
exception Chain_exhausted of { addr : int; trail : int list }

(** Raise {!Object_lost} if the object has been marked lost. *)
val check_lost : 'a t -> unit

val make :
  addr:int -> name:string -> size:int -> node:int -> 'a -> 'a t

(** {2 Balance observation window}

    Per-object invocation counters consumed by the load balancer's
    rebalancer daemon.  Pure in-memory bookkeeping — recording and
    resetting charge no simulated cost. *)

(** Count one invocation: [local = true] when the invoking thread was
    already at the master, else attributed to [origin] (the node the
    thread called from). *)
val record_call : 'a t -> origin:int -> local:bool -> unit

(** Clear the window counters (each rebalancer observation cycle). *)
val reset_window_any : any -> unit

val addr_of_any : any -> int
val name_of_any : any -> string
val size_of_any : any -> int
val location_of_any : any -> int

(** The object and, transitively, everything attached to it, in pre-order:
    the object, then each of its [attached] depth-first.  Moves walk it in
    this order. *)
val attachment_closure : any -> any list

(** Total representation bytes of the attachment closure, summed over the
    attachment forest that {!Mobility.attach} keeps, without building the
    list. *)
val closure_size : any -> int

(** Is a copy of the object usable on [node]?  True for the master copy's
    node and, for immutables, any replica node. *)
val usable_on : 'a t -> int -> bool

(** The replica snapshot held on [node], as [(install_epoch, value)]. *)
val snapshot : 'a t -> node:int -> (int * 'a) option

val set_snapshot : 'a t -> node:int -> epoch:int -> 'a -> unit
val drop_snapshot : 'a t -> node:int -> unit

val pp : Format.formatter -> 'a t -> unit
