(** Hash tables keyed by global virtual addresses: the per-node
    descriptor tables and each heap's block table.

    Addresses are poor hash keys as they stand.  Heap blocks are aligned
    to {!Layout.block_align} bytes and thread segments lie 8 KB apart,
    so their low bits repeat.  A table picks its bucket from the low bits
    of the hash, so a hash that keeps the low address bits, such as
    [(a lsr 4) * k], puts every thread segment in a few buckets.  This
    hash multiplies by an odd constant and folds the high half of the
    product onto the low half, so the bucket depends on every address
    bit.  Equality is [Int.equal]: no polymorphic compare or hash. *)

include Hashtbl.S with type key = int

(** The hash the tables use; non-negative. *)
val hash : int -> int
