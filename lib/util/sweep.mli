(** Parameter-sweep helpers: linear and logarithmic ranges used by every
    figure driver.

    The range builders return [('a, Diag.t) result] — a degenerate range
    (too few points, non-positive log endpoints, non-finite bounds) is a
    [Domain] or [Non_finite] diagnostic rather than an abort. *)

val linspace : float -> float -> int -> (float array, Diag.t) result
(** [linspace lo hi n] is [n >= 2] evenly spaced points including both
    endpoints. *)

val linspace_exn : float -> float -> int -> float array

val logspace : float -> float -> int -> (float array, Diag.t) result
(** [logspace lo hi n] is [n >= 2] points evenly spaced in log10 between
    the positive endpoints [lo] and [hi], inclusive. *)

val logspace_exn : float -> float -> int -> float array

val int_range : int -> int -> int array
(** [int_range lo hi] is [lo; lo+1; ...; hi]. Empty if [hi < lo]. Total. *)

val geometric_ints : int -> int -> float -> (int array, Diag.t) result
(** [geometric_ints lo hi ratio] is the increasing deduplicated sequence
    [lo; lo*ratio; ...] capped at [hi] (always includes [lo]; includes [hi]
    if distinct from the last generated point). Requires [lo > 0] and a
    finite [ratio > 1]. *)
