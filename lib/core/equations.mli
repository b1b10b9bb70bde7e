(** The analytical model proper: equations (1)-(9) of the paper.

    All times are per-interval, where one interval is the average stretch
    of program containing exactly one accelerator invocation ([1/v]
    instructions of the baseline program). Speedups are ratios of interval
    times, which by the paper's interval-analysis argument equal
    whole-program speedups.

    Every evaluator returns [('a, Diag.t) result] and guarantees that an
    [Ok] carries only finite values — a degenerate-but-validated scenario
    (e.g. zero-latency accelerator with zero commit stall) that drives an
    interval time to 0 or a speedup to infinity surfaces as
    [Error (Non_finite _)] instead of poisoning a sweep. *)

type times = {
  t_baseline : float;  (** eq. (1): [1 / (v * IPC)] *)
  t_accl : float;  (** eq. (2): [a / (v * A * IPC)] or explicit latency *)
  t_non_accl : float;  (** eq. (3): [(1 - a) / (v * IPC)] *)
  t_drain : float;  (** window-drain penalty (power law or override) *)
  t_rob_fill : float;  (** [s_ROB / w_issue] *)
  t_commit : float;  (** the core's [t_commit] parameter *)
  config : Params.config_cost;
      (** configuration mechanism, applied to the mode time by terms
          (T1)-(T3); [No_config] leaves eqs. (4)-(9) untouched *)
}

val config_overhead : Params.config_cost -> base:float -> float
(** The configuration-wall terms. With [base] the interval time of
    eqs. (4)-(9) and [t_config = c]:

    - (T1) [Sync c]: [base + c] — synchronous CSR writes sit on the
      critical path of every invocation.
    - (T2) [Queued {t_config = c; _}]: [max base c] — the serial
      descriptor engine overlaps with execution, so in steady state it
      is a throughput bound on the invocation period, not an additive
      latency. The queue [depth] bounds transient bursts only and does
      not appear in the steady-state term ({!Assume.audit} grades the
      burstiness assumption behind this).
    - (T3) [Preprogrammed {t_config = c; invocations = n}]: [base + c/n]
      — the one-time programming cost amortized over the run.

    All three reduce exactly to [base] at [c = 0], and [No_config] is
    the identity, so the pinned eqs. (4)-(9) results are unchanged. *)

val config_break_even :
  ?hi:float ->
  Params.core ->
  a:float -> accel:Params.accel_time -> config:Params.config_cost ->
  Mode.t -> (float option, Diag.t) result
(** The smallest invocation granularity [g = a/v] at which the mode's
    speedup with the given configuration cost reaches 1.0 (acceleration
    stops losing to the configuration wall). Found by bisection over
    [g in [1, hi]] ([hi] defaults to [1e9]); [Ok None] when the mode
    never breaks even below [hi], [Ok (Some 1.)] when it already breaks
    even at the smallest legal granularity. Used by the lint layer to
    warn on invocation streams whose measured granularity sits below
    this threshold. *)

val interval_times :
  Params.core -> Params.scenario -> (times, Diag.t) result
(** All intermediate quantities for one (core, scenario) pair.
    [Error (Domain _)] when [v = 0] (no invocations: there is no
    interval); [Error (Non_finite _)] when an extreme input overflows a
    time. *)

val time_of_times : times -> Mode.t -> float
(** Pure combination of precomputed interval times per eqs. (4)-(9),
    with the configuration term (T1)-(T3) of {!config_overhead} applied
    on top. With [config = No_config] this is exactly eqs. (4)-(9). *)

val mode_time :
  Params.core -> Params.scenario -> Mode.t -> (float, Diag.t) result
(** Interval execution time under the given TCA mode: eqs. (4), (5), (7)
    and (9). *)

val speedup :
  Params.core -> Params.scenario -> Mode.t -> (float, Diag.t) result
(** [t_baseline / mode_time]. [Ok 1.0] when [v = 0] (nothing is
    accelerated). Values below 1 are program slowdowns. *)

val speedup_exn : Params.core -> Params.scenario -> Mode.t -> float

val speedups :
  Params.core -> Params.scenario -> ((Mode.t * float) list, Diag.t) result
(** Speedup under all four modes, in [Mode.all] order. *)

val best_mode :
  Params.core -> Params.scenario -> (Mode.t * float, Diag.t) result
(** The mode with the highest predicted speedup (ties resolved toward the
    cheaper hardware, i.e. the earlier entry of [Mode.all]). *)

(** {2 Multi-unit composition}

    With N heterogeneous units there is no single "interval containing
    one invocation", so the composed rule works per {e instruction}:
    each term of eqs. (4)-(9) is weighted by its unit's invocation rate
    [v_i] and summed. Writing [t_i] for unit [i]'s per-invocation
    execution time (eq. (2) scaled to one invocation, or its explicit
    latency), [v = Σ v_i], [a = Σ a_i], [χ] for the chained fraction and
    [t_cont = χ·v·t_commit] when the commit port is shared (0 when
    private):

    {v
    T_NL_NT = t_non + Σ v_i·t_i + (1-χ)·v·(t_drain + t_commit)
              + v·t_commit + t_cont
    T_L_NT  = t_non + Σ v_i·t_i + v·t_commit + t_cont
    T_NL_T  = max(t_non + Σ v_i·max(0, t_drain + t_i + t_commit - t_fill),
                  Σ v_i·t_i + (1-χ)·v·t_drain + v·t_commit) + t_cont
    T_L_T   = max(t_non + Σ v_i·max(0, t_i - t_fill), Σ v_i·t_i) + t_cont
    v}

    where [t_non = (1-a)/IPC] and [t_fill = s_ROB/w_issue]. Chained
    invocations ([χ]) share one window drain — the consumer dispatches
    into the window its producer already drained — but serialize on the
    shared commit port, which is the [t_cont] term. Speedup is
    [(1/IPC) / T]. At N = 1 with [χ = 0] and a shared port every mode
    time is exactly [v] times the single-unit interval time, so the
    composed model reduces to eqs. (4)-(9) (pinned by the tests).

    Per-unit configuration costs compose the same way (T1)-(T3) do for
    one unit: the additive mechanisms contribute
    [c_cfg_add = Σ v_i·c_i (Sync) + Σ v_i·c_i/n_i (Preprogrammed)]
    per instruction, while each queued descriptor engine imposes the
    per-instruction throughput floor [v_i·c_i], of which the binding one
    is [c_cfg_floor = max_i v_i·c_i (Queued)]. Every mode time becomes
    [max (T + c_cfg_add) c_cfg_floor]; at N = 1 this is exactly [v]
    times {!config_overhead}. *)

type composed_times = {
  c_baseline : float;  (** per-instruction baseline time, [1/IPC] *)
  c_non_accl : float;  (** [(1 - Σ a_i)/IPC] *)
  c_accl_total : float;  (** [Σ v_i · t_i] *)
  c_drain : float;  (** per-invocation window drain *)
  c_rob_fill : float;  (** [s_ROB / w_issue] *)
  c_commit : float;
  c_v_total : float;  (** [Σ v_i] *)
  c_v_drain : float;  (** [(1 - χ) · Σ v_i]: invocations that drain *)
  c_contend : float;  (** commit-port contention of chained invocations *)
  c_unit_terms : (float * float) list;  (** per unit: [(v_i, t_i)] *)
  c_cfg_add : float;
      (** per-instruction additive config cost: [Σ v_i·c_i] over [Sync]
          units plus [Σ v_i·c_i/n_i] over [Preprogrammed] units *)
  c_cfg_floor : float;
      (** per-instruction throughput floor of the busiest [Queued]
          descriptor engine: [max_i v_i·c_i]; 0 with no queued units *)
}

val composed_times :
  Params.core -> Params.composition -> (composed_times, Diag.t) result
(** [Error (Domain _)] when [Σ v_i = 0] (no invocations at all);
    [Error (Non_finite _)] on overflow, as {!interval_times}. *)

val composed_time_of_times : composed_times -> Mode.t -> float
(** Pure combination of precomputed composed times per the table
    above. *)

val composed_speedup :
  Params.core -> Params.composition -> Mode.t -> (float, Diag.t) result
(** [c_baseline / composed_time]. [Ok 1.0] when [Σ v_i = 0]. *)

val composed_speedups :
  Params.core -> Params.composition ->
  ((Mode.t * float) list, Diag.t) result
(** All four modes, in [Mode.all] order. *)

val composed_best_mode :
  Params.core -> Params.composition -> (Mode.t * float, Diag.t) result

val ideal_speedup :
  Params.core -> Params.scenario -> (float, Diag.t) result
(** The "replace the region with accelerator time" estimate used by prior
    TCA papers: [t_baseline / (t_non_accl + t_accl)]. Upper-bounds the
    non-overlapped modes and ignores all window effects; shown in the
    discussion benches for contrast. [Ok 1.0] when [v = 0]. *)
