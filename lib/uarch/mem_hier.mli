(** Two-level cache hierarchy plus a flat-latency main memory. *)

type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  mem_latency : int;  (** cycles for a DRAM access beyond the L2 *)
}

val config :
  ?mem_latency:int -> l1:Cache.config -> l2:Cache.config -> unit -> config
(** [mem_latency] defaults to 100 cycles. *)

type t

val create : config -> t

val load_latency : t -> int -> int
(** Total latency of a read: L1 hit latency on a hit; otherwise L1 + L2
    (+ memory) latencies accumulated. Fills all levels on the way. *)

val store : t -> int -> unit
(** Commit-time store: write-allocate into all levels; the pipeline
    charges no latency (retired stores drain in the background, a
    documented abstraction). *)

type level_stats = { hits : int; misses : int }

val l1_stats : t -> level_stats
val l2_stats : t -> level_stats
