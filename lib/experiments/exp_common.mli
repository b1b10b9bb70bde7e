(** Shared plumbing for the figure/table drivers: the validation core,
    coupling/mode conversion, and the meta-to-model-input translation. *)

val validation_core : unit -> Tca_uarch.Config.t
(** The simulated core all validation experiments run on (the
    high-performance preset, as the paper's gem5 configuration is the
    detailed one). *)

val model_core_of :
  Tca_uarch.Config.t -> ipc:float -> Tca_model.Params.core
(** Analytical-model core parameters read off a simulator configuration
    plus the measured baseline IPC. *)

val coupling_of_mode : Tca_model.Mode.t -> Tca_uarch.Config.coupling
val mode_of_coupling : Tca_uarch.Config.coupling -> Tca_model.Mode.t

val scenario_of_meta :
  ?drain:Tca_interval.Drain.spec ->
  ?config:Tca_model.Params.config_cost ->
  Tca_workloads.Meta.t -> latency:float -> Tca_model.Params.scenario
(** Scenario with an explicit accelerator latency (cycles); [drain]
    defaults to the paper's [Auto] estimator and [config] to
    [No_config], so existing callers model configuration-free TCAs. *)

val meta_latency :
  Tca_workloads.Meta.t -> cfg:Tca_uarch.Config.t -> float
(** The architect's latency estimate for the workload's TCA: compute
    latency plus first-order memory time through the configured L1 and
    ports (see {!Tca_uarch.Config.accel_latency_estimate}). *)

type validation_row = {
  workload : string;
  v : float;
  a : float;
  base_ipc : float;
  mode : Tca_model.Mode.t;
  sim_speedup : float;
  model_speedup : float;  (** paper-default drain estimator *)
  model_refill_speedup : float;
      (** refill-aware drain estimator (see {!Tca_interval.Drain.spec}) *)
}

val error_pct : validation_row -> float
(** Paper-default model vs simulator. *)

val refill_error_pct : validation_row -> float

val scenario_speedup :
  ?config:Tca_model.Params.config_cost ->
  Tca_workloads.Meta.t ->
  latency:float ->
  drain:Tca_interval.Drain.spec ->
  Tca_model.Params.core ->
  Tca_model.Mode.t ->
  float
(** The paper's eqs. (4)-(9) speedup of the workload's
    {!scenario_of_meta}: partially applied to a meta and a latency, the
    single-unit [~model] of {!validate_pair}. *)

val validate_pair :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?label:string ->
  cfg:Tca_uarch.Config.t ->
  pair:Tca_workloads.Meta.pair ->
  model:
    (drain:Tca_interval.Drain.spec ->
    Tca_model.Params.core ->
    Tca_model.Mode.t ->
    float) ->
  unit ->
  validation_row list * Tca_uarch.Simulator.comparison
(** Run baseline + four couplings in the simulator, evaluate [model]
    with the measured baseline IPC under both drain estimators ([Auto]
    for [model_speedup], [Refill_aware] for [model_refill_speedup]),
    and return one row per mode plus the raw comparison. [label]
    (default the workload's name) fills the [workload] column. With
    [?telemetry], the five simulator runs share the sink and the whole
    point is wrapped in a [validate.<label>] wall-clock span. [?par]
    (default serial) spreads the five runs over a pool with identical
    results. *)

val validation_sweep :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?latency:float ->
  ('a -> Tca_workloads.Meta.pair * 'b) ->
  'a list ->
  validation_row list * 'b list
(** [validation_sweep point items] runs one {!validate_pair} point per
    item on the {!validation_core}, spread over [par] with
    {!Tca_telemetry.Timing.fan_out}. [point item] generates the item's
    trace pair (inside a [sim.workload] span) plus a side result; the
    model is {!scenario_speedup} at [latency] (default: the pair's
    {!meta_latency}). Returns the rows and the side results, both in
    item order, identical for every [par]. *)

val validation_table : validation_row list -> Tca_engine.Artifact.table
(** The standard 10-column validation table (typed cells), named
    [validation]. *)

val validation_summary_notes : validation_row list -> string list
(** Both estimators' error summaries plus trend-preservation flags, as
    note lines. *)

val validation_artifact :
  job:string -> title:string -> ?notes:string list ->
  validation_row list -> Tca_engine.Artifact.t
(** The standard validation artifact: leading [notes], the
    {!validation_table}, then {!validation_summary_notes}. *)

val points_of_rows : validation_row list -> Tca_model.Validate.point list
(** Points under the paper-default drain estimator. *)

val refill_points_of_rows :
  validation_row list -> Tca_model.Validate.point list

(** {2 Workloads shared by the CLI and the [simulate.*] jobs} *)

type workload_kind = Synthetic | Heap | Dgemm | Hashmap | Regex | Strfn

val workload_kinds : (string * workload_kind) list
(** CLI spelling of each kind, in menu order. *)

val workload_pair :
  ?telemetry:Tca_telemetry.Sink.t ->
  cfg:Tca_uarch.Config.t -> ?size:int -> workload_kind ->
  Tca_workloads.Meta.pair * float
(** The workload's trace pair plus the architect's latency estimate for
    its TCA. [size] (default 0 = the workload's default) is chunks
    (synthetic), app instructions per invocation (heap, hashmap, regex,
    strfn) or the matrix dimension (dgemm). With [telemetry], the
    generation is recorded as a [sim.workload] span. *)

val simulate_title : workload_kind -> string
(** Title of the [simulate.<workload>] job and its artifact. *)

val simulate_artifact :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?size:int ->
  workload_kind ->
  Tca_engine.Artifact.t
(** The [simulate.<workload>] artifact, shared by that job and
    [tca simulate]: the workload's {!Tca_workloads.Meta} line, then the
    {!validation_artifact} of its baseline and accelerated traces under
    all four couplings. [size] is as in {!workload_pair}. *)

val golden_pairs : unit -> (string * Tca_workloads.Meta.pair) list
(** One deliberately small, deterministic instance of each of the six
    workload families, in [workload_kinds] order. Shared by the golden
    [Sim_stats] test in [test/test_uarch.ml] and its regenerator
    [test/gen_golden.exe]; the sizes are pinned because the committed
    golden files depend on them byte-for-byte. *)
