(** Extension X5: accelerator-occupancy ablation.

    The paper assumes "the accelerator is assumed to have its own compute
    resources"; it is silent on whether the unit is pipelined. This
    ablation runs the DGEMM 4x4 TCA with a fully pipelined unit vs. an
    exclusive (one invocation at a time) unit: the difference only
    appears in the T modes, where trailing concurrency lets invocations
    overlap — quantifying how much of L_T's advantage comes from
    accelerator pipelining rather than core/TCA overlap. *)

type row = {
  occupancy : string;
  mode : Tca_model.Mode.t;
  cycles : int;
  speedup : float;
}

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?n:int -> unit -> row list
(** 8 rows: 2 occupancy policies x 4 modes. [n] defaults to 32. [?par]
    evaluates the 8 accelerated runs concurrently with identical rows
    and merged trace. *)

val artifact : row list -> Tca_engine.Artifact.t
