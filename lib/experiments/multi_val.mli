(** Extension X10: multi-unit TCA validation — the three two-unit
    compositions of {!Tca_workloads.Multi_tca} (alternating, chained,
    contended) run through the simulator under all four couplings and
    compared against the composed analytical model
    ({!Tca_model.Equations.composed_speedup}), with the same error-band
    methodology as the single-unit validations; plus the model-only
    speedup-vs-chained-fraction sweep that exhibits the commit-port
    contention term. *)

val unit_latency :
  Tca_workloads.Multi_tca.scenario ->
  Tca_workloads.Multi_tca.unit_usage ->
  cfg:Tca_uarch.Config.t ->
  float
(** Architect's per-invocation latency estimate for one unit: its
    compute latency plus the scenario's shared memory-time estimate
    (see {!Exp_common.meta_latency}). *)

val composition_of :
  ?drain:Tca_interval.Drain.spec ->
  Tca_workloads.Multi_tca.scenario ->
  cfg:Tca_uarch.Config.t ->
  Tca_model.Params.composition
(** The composed-model inputs read off a scenario: per-unit [a_i]/[v_i]
    from the usage counts, per-unit {!unit_latency}, the scenario's
    chained fraction, shared commit port. *)

val validate :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  cfg:Tca_uarch.Config.t ->
  Tca_workloads.Multi_tca.scenario ->
  Exp_common.validation_row list * Tca_uarch.Simulator.comparison
(** Install the scenario's unit table, run baseline + four couplings,
    and score the composed model (paper-default and refill-aware drain)
    against the simulator — one row per mode, plus the raw comparison
    for the per-unit counter breakdown. *)

val scenarios :
  ?quick:bool -> unit -> Tca_workloads.Multi_tca.scenario list

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool ->
  unit ->
  (Tca_workloads.Multi_tca.scenario
  * (Exp_common.validation_row list * Tca_uarch.Simulator.comparison))
  list
(** All three scenarios; [?par] evaluates them concurrently with
    identical rows and merged trace. *)

val artifact :
  (Tca_workloads.Multi_tca.scenario
  * (Exp_common.validation_row list * Tca_uarch.Simulator.comparison))
  list ->
  Tca_engine.Artifact.t
(** Per-scenario composition notes, the standard validation table with
    error-band summary, and the per-unit simulator counter table. *)

val sweep :
  ?points:int ->
  ?core:Tca_model.Params.core ->
  unit ->
  Tca_model.Params.core
  * Tca_model.Params.composition
  * (float
    * (Tca_model.Mode.t * float) list
    * (Tca_model.Mode.t * float) list)
    list
(** Composed-model speedups for all four modes as the chained fraction
    sweeps [0, 1], once with a shared and once with private commit
    ports, on the chained scenario's unit mix. *)

val sweep_artifact :
  Tca_model.Params.core
  * Tca_model.Params.composition
  * (float
    * (Tca_model.Mode.t * float) list
    * (Tca_model.Mode.t * float) list)
    list ->
  Tca_engine.Artifact.t
