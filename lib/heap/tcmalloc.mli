(** A working TCMalloc-style small-object allocator over a byte arena.

    Serves the four size classes from per-class LIFO free lists, carving
    fresh blocks from a bump pointer when a list is empty. This is the
    functional substrate behind the heap-accelerator workload: the
    generated μop sequences and TCA invocations correspond to real
    allocator operations with real addresses, so the common case the
    paper assumes (the accelerator always has a pointer to return and a
    slot to accept a free) is established by construction, not asserted. *)

type t

val create : ?base:int -> unit -> t
(** [base] is the start address of the 16 MB arena (default
    0x1000_0000, clear of the workload generators' static data). *)

exception Out_of_memory

val malloc : t -> int -> int
(** [malloc t size] returns the block address. Sizes above
    {!Size_class.max_small_size} are bump-allocated (large-object path).
    Raises [Invalid_argument] on non-positive sizes, [Out_of_memory] when
    the arena is exhausted. *)

val free : t -> int -> unit
(** Returns a block to its class free list. Raises [Invalid_argument] on
    an address that is not currently allocated (catches double-free). *)

val malloc_hits_free_list : t -> int -> bool
(** Would [malloc size] be served from a free list (the accelerated fast
    path) rather than the bump pointer? *)

val live_bytes : t -> int

val class_of_block : t -> int -> int option
(** Size class of a currently-allocated block. *)

val freelist_head_addr : t -> int -> int
(** Address of the metadata word holding a class's free-list head — the
    location the software malloc sequence loads and stores, kept
    L1-resident like TCMalloc's thread cache. *)

val check_invariants : t -> (unit, string) result
(** No block is both live and free; free lists are duplicate-free; all
    blocks lie inside the arena and are class-aligned. *)
