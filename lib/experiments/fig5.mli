(** Fig. 5: heap-manager TCA validation — analytical speedup (a),
    simulated speedup (b), and error (c) across malloc/free invocation
    frequencies, for all four modes. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t -> ?quick:bool ->
  unit -> Exp_common.validation_row list
val artifact : Exp_common.validation_row list -> Tca_engine.Artifact.t
