(** Reorder-buffer drain-time estimation (paper Section III-A).

    When a non-speculative TCA reaches dispatch, the core must drain the
    window of leading instructions before the accelerator may execute. The
    drain lasts for the critical-path length of whatever the window holds.
    The paper either takes an explicit drain time from the user or
    estimates it from program IPC and ROB size via the power law, capped
    at the interval's non-accelerated work [t_non_accl] ("if t_non_accl is
    smaller than t_drain ... t_non_accl is used instead"). *)

type spec =
  | Auto  (** estimate from the power-law fit (the paper's default) *)
  | Fixed of float  (** cycles, supplied by the user *)
  | Refill_aware
      (** zero extra drain: when the front end can dispatch ahead of a
          backend whose throughput does not scale with window occupancy
          (dependence-chain-limited code), the post-barrier window refill
          absorbs the drain entirely — the interval still completes in
          [t_non_accl]. The paper's [Auto] estimate applies to workloads
          whose ILP grows with window size (the SPEC-like square-root
          law); [Refill_aware] is the other analytical limit, and matches
          chain-structured microbenchmarks. See EXPERIMENTS.md. *)

val time :
  fit:Power_law.fit ->
  window:int ->
  spec ->
  interval_instrs:float ->
  non_accl_time:float ->
  float
(** [time ~fit ~window spec ~interval_instrs ~non_accl_time] is the
    drain penalty in cycles. In [Auto] mode the window content is
    [min window interval_instrs] (a short interval cannot fill the ROB)
    and the result is additionally capped at [non_accl_time]. A [Fixed]
    time is also capped at [non_accl_time], matching the paper's rule.

    Applying it to [~fit ~window] alone computes the full-window
    critical path [l(window)] once; the returned function reuses it for
    every interval at least a window long. *)
