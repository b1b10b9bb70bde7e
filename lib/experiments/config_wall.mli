(** X12, the configuration wall: model-only granularity sweep of the
    (T1)-(T3) configuration terms with their break-even crossings, plus
    the [simulate.config_wall] model-vs-simulator validation of all
    three mechanisms. *)

type row = {
  g : float;  (** invocation granularity [a / v] *)
  speedups : (string * float) list;
      (** one entry per config variant ([none] / [sync] / [queued] /
          [preprog]) under the swept coupling mode *)
}

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?points:int -> unit -> row list
(** The X12 sweep: Fig. 2's operating point (ARM A72-like core,
    [a = 0.3], [A = 3]) under L_T coupling, [points] (default 33)
    log-spaced granularities from 10 to 1e9, one speedup column per
    configuration variant. *)

val artifact : row list -> Tca_engine.Artifact.t
(** The [config_wall] figure: sweep table, break-even table, and the
    (T1)-(T3) reading notes. *)

type vresult = {
  vname : string;  (** [sync] / [queued] / [preprog] *)
  rows : Exp_common.validation_row list;
  stalls : (Tca_model.Mode.t * int * int) list;
      (** per coupling: (mode, {!Tca_uarch.Sim_stats.t.config_stall_cycles},
          {!Tca_uarch.Sim_stats.t.config_queue_stall_cycles}) *)
}

val validate :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool ->
  unit ->
  vresult list
(** Run the synthetic workload with the unit's configuration knobs set
    to each mechanism in turn (100-cycle configuration latency), under
    baseline + all four couplings, and compare against the model with
    the matching {!Tca_model.Params.config_cost} — the same error-band
    methodology as the base [simulate.*] jobs. *)

val validate_artifact : vresult list -> Tca_engine.Artifact.t
(** The [simulate.config_wall] artifact: the standard validation table
    and summaries plus the simulator's config-stall counters. *)
