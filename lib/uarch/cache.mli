(** One level of set-associative cache with LRU replacement.

    Timing-only: no data storage, no writeback traffic (documented
    first-order abstraction — dirty-eviction bandwidth does not interact
    with the TCA coupling modes under study). *)

type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  hit_latency : int;  (** cycles for a hit at this level *)
}

val config :
  ?line_bytes:int -> ?hit_latency:int -> size_bytes:int -> assoc:int -> unit ->
  config
(** Validates power-of-two sizes and divisibility; [line_bytes] defaults
    to 64, [hit_latency] to 2. *)

type t

val create : config -> t

val access : t -> int -> bool
(** [access t addr] probes the set for [addr]'s line. On a hit, promotes
    to MRU and returns [true]. On a miss, fills the line (evicting LRU)
    and returns [false]. *)

val hits : t -> int
val misses : t -> int
