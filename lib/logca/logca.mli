(** The LogCA performance model for (loosely-coupled) hardware
    accelerators, after Altaf and Wood, "LogCA: a performance model for
    hardware accelerators" (IEEE CAL 2015).

    LogCA is the prior model this paper positions itself against: it
    targets coarse-grained offload, assumes the CPU idles during
    accelerator execution, and ignores pipeline drain/fill effects — the
    very effects that dominate for tightly-coupled accelerators. We
    implement it as the comparison baseline.

    Parameters, for an offload of granularity [g] (bytes or elements),
    with the data moved and the work done both linear in [g] (LogCA's
    exponents [tau = beta = 1]):
    - [l] (Latency): cycles to move data to/from the accelerator,
      per unit of granularity;
    - [o] (overhead): fixed cycles to set up an invocation;
    - [c] (Computational index): host cycles of work per unit;
    - [acceleration]: peak speedup [A] of the accelerator on the kernel. *)

type t = {
  latency : float;  (** [l]: interface latency coefficient *)
  overhead : float;  (** [o]: fixed invocation overhead, cycles *)
  compute_index : float;  (** [c]: host cycles per unit of granularity *)
  acceleration : float;  (** [A > 1] *)
}

val make :
  latency:float ->
  overhead:float ->
  compute_index:float ->
  acceleration:float ->
  unit ->
  t
(** Raises [Invalid_argument] on non-positive [compute_index] or
    [acceleration <= 1], or negative latency/overhead. *)

val time_unaccelerated : t -> float -> float
(** [c * g]. *)

val time_accelerated : t -> float -> float
(** [o + l * g + c * g / A]. *)

val speedup : t -> float -> float
(** [time_unaccelerated / time_accelerated] at granularity [g > 0]. *)

val break_even : t -> float option
(** [g1]: smallest granularity with speedup >= 1, found by bisection on
    [1, 1e12]. [None] if the accelerator never breaks even in range. *)

val g_half : t -> float option
(** [g_{A/2}]: granularity reaching half the peak speedup, by bisection.
    [None] if unreachable in [1, 1e12]. *)

val asymptotic_speedup : t -> float
(** Limit of [speedup] as [g -> infinity]: [c / (l + c / A)]. *)
