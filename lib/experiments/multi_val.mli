(** Extension X10: multi-unit TCA validation — the three two-unit
    compositions of {!Tca_workloads.Multi_tca} (alternating, chained,
    contended) run through the simulator under all four couplings and
    compared against the composed analytical model
    ({!Tca_model.Equations.composed_speedup}), with the same error-band
    methodology as the single-unit validations; plus the model-only
    speedup-vs-chained-fraction sweep that exhibits the commit-port
    contention term. *)

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
  unit ->
  Tca_model.Params.core
  * Tca_model.Params.composition
  * (float
    * (Tca_model.Mode.t * float) list
    * (Tca_model.Mode.t * float) list)
    list
(** Composed-model speedups on the HP core for all four modes as the
    chained fraction sweeps [0, 1], once with a shared and once with
    private commit ports, on the chained scenario's unit mix. *)

val sweep_artifact :
  Tca_model.Params.core
  * Tca_model.Params.composition
  * (float
    * (Tca_model.Mode.t * float) list
    * (Tca_model.Mode.t * float) list)
    list ->
  Tca_engine.Artifact.t
