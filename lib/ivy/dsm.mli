(** Shared virtual memory with page-level coherence — the Ivy baseline the
    paper compares against in §4 [Li & Hudak 86].

    The protocol is the dynamic distributed manager: every node keeps a
    probable-owner hint per page; requests chase hints to the true owner.
    Read faults replicate the page (requester joins the owner's copyset);
    write faults transfer ownership and invalidate all copies.  Page
    contents are real bytes held in each node's {!Topaz.Vm}, so coherence
    can be checked against a sequential oracle in tests.

    Non-faulting accesses cost nothing in virtual time — they are ordinary
    memory references whose cost belongs to the application's compute
    charge.  Faults pay trap + request routing + page transfer +
    (for writes) invalidation round trips, on the same simulated Ethernet
    and RPC fabric as Amber, which is what makes the comparison fair.

    The Amber {!Amber.Runtime.t} is used purely as the hardware/OS
    substrate (machines, network, RPC servers); none of the object layer
    is involved.  All access operations require fiber context. *)

type t

(** Owner-location strategy [Li 86]: [Dynamic] chases per-node
    probable-owner hints (the default); [Fixed] consults a designated
    per-page manager node that tracks ownership authoritatively (requests
    cost a constant number of messages; transfers pay a manager update). *)
type manager_mode = Dynamic | Fixed

type stats = {
  mutable read_faults : int;
  mutable write_faults : int;
  mutable upgrades : int;  (** write faults by an owner holding Read *)
  mutable invalidations : int;
  mutable forward_hops : int;  (** Dynamic-mode hint chases *)
  mutable manager_lookups : int;  (** Fixed-mode manager queries *)
  mutable page_transfers : int;
  mutable transfer_bytes : int;
}

(** [create rt ~pages ()] lays out [pages] coherent pages (of the task VM
    page size, 1 KiB by default) starting at address 0.  [initial_owner]
    defaults to distributing pages round-robin over nodes. *)
val create :
  Amber.Runtime.t ->
  ?initial_owner:(int -> int) ->
  ?manager:manager_mode ->
  pages:int ->
  unit ->
  t

val page_size : t -> int
val pages : t -> int
val stats : t -> stats

(** {1 Access operations (fiber context)} *)

(** Ensure the calling node may read/write the page containing [addr]
    without moving any data on a hit. *)

val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

(** Fault in write access for an address's page without accessing data
    (used to model program-directed prefetching). *)
val ensure_write : t -> int -> unit

(** {1 Introspection (tests / benches)} *)

(** Ground-truth owner: the unique node with [is_owner] set.  Raises
    [Failure] if the invariant is broken (no owner / several). *)
val owner_of : t -> int -> int

(** Nodes whose page-table access for [page] is [Read] or [Write]. *)
val holders : t -> int -> int list
