(** A per-class free list: a LIFO stack of block addresses, mirroring a
    TCMalloc thread-cache list. *)

type t

val create : unit -> t
val push : t -> int -> unit
val pop : t -> int option
val is_empty : t -> bool

val to_list : t -> int list
(** Head first; non-destructive. *)
