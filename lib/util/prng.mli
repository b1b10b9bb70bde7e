(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the repository (workload generators,
    microbenchmark placement, qcheck seeds for reproduction scripts) draws
    from this generator so that a given seed always reproduces the same
    traces, figures and tables. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy sharing no state with the original. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]: every caller's bound is correct by construction. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent child generator (for parallel substreams). *)
