(** Per-node heap allocator over the global address space (paper §3.1–3.2).

    Each node allocates dynamic objects from regions it owns, so no
    distributed agreement is needed per allocation.  Two constraints from
    the paper shape the design:

    - blocks are {e never divided} once they have been returned to the free
      pool (§3.2) — this guarantees that a dangling reference to a freed
      block still lands on a block boundary, so its descriptor word is
      interpretable (zero ⇒ non-resident);
    - when the node's regions are exhausted, a new region must be obtained
      from the address-space server — the allocator signals this by calling
      the [grow] callback supplied at creation.

    Allocation policy: an exact-fit search of the free pool (free blocks
    are reusable only whole), falling back to bump allocation from the most
    recently added region. *)

type t

(** [create ~node ~grow ()] makes an empty allocator; [grow] is invoked
    (outside any lock) whenever a fresh region is required and must return
    a region owned by [node]. *)
val create : node:int -> grow:(unit -> Region.t) -> unit -> t

val node : t -> int

(** Allocate [size] bytes (rounded up to {!Layout.block_align}); returns
    the block's base address.  Raises [Invalid_argument] for non-positive
    sizes or sizes exceeding a region. *)
val alloc : t -> int -> int

(** Return a block to the free pool.  The address must be one previously
    returned by [alloc] on this heap and not currently free (raises
    [Invalid_argument] otherwise). *)
val free : t -> int -> unit

(** Rounded size of the live or free block at [addr], if [addr] is a block
    base on this heap. *)
val block_size : t -> int -> int option

val is_live : t -> int -> bool

(** Regions currently backing this heap, newest first. *)
val regions : t -> Region.t list

(** {1 Statistics} *)

val live_blocks : t -> int
val bytes_live : t -> int

(** Allocations satisfied by reusing a freed block. *)
val reuse_count : t -> int

(** Times [grow] was invoked. *)
val grow_count : t -> int
