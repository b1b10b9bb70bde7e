(** TCMalloc-style size classes. The paper's heap microbenchmark draws
    from four classes: 0-32 B, 33-64 B, 65-96 B and 97-128 B. *)

val num_classes : int
(** 4 *)

val max_small_size : int
(** 128 bytes: the largest size served from a class free list. *)

val of_size : int -> int option
(** [of_size bytes] is the class index in [0, num_classes) for an
    allocation of [bytes], or [None] when [bytes > max_small_size].
    Raises [Invalid_argument] for [bytes <= 0]. *)

val class_bytes : int -> int
(** Rounded allocation size of a class: 32, 64, 96 or 128. Raises
    [Invalid_argument] for an out-of-range index. *)

