(** Global virtual address space layout (paper §3.1).

    Every task arranges its address space identically, so a virtual address
    names the same object on every node.  The static segment (program code
    and statically initialized data) is implicitly replicated; everything
    above it is heap space carved into fixed-size regions handed out by the
    address-space server. *)

(** First address available for heap regions: the static segment (code
    and static data, identical on every node) fills the 16 MB below it,
    from address 0. *)
val heap_base : int

(** Size of one heap region ("currently 1M bytes", §3.1). *)
val region_size : int

(** One past the last address: the top of the 32-bit VAX address space. *)
val address_space_top : int

(** Allocation granularity within a region; all heap blocks are multiples
    of this and aligned to it. *)
val block_align : int

(** Number of whole regions that fit between {!heap_base} and the top of
    the 32-bit VAX address space. *)
val max_regions : int

val is_heap_addr : int -> bool
val is_static_addr : int -> bool

(** Index of the region containing a heap address.
    Raises [Invalid_argument] for non-heap addresses. *)
val region_index_of_addr : int -> int

(** Base address of region [i]. *)
val region_base : int -> int
