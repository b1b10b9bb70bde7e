(** Fig. 5: heap-manager TCA validation — analytical speedup (a),
    simulated speedup (b), and error (c) across malloc/free invocation
    frequencies, for all four modes. *)

val gaps : quick:bool -> int list
(** Application instructions between heap calls; smaller = higher
    invocation frequency. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t -> ?quick:bool ->
  unit -> Exp_common.validation_row list
val summary : Exp_common.validation_row list -> (Tca_model.Validate.summary, Tca_model.Diag.t) result
val trends_hold : Exp_common.validation_row list -> bool
val artifact : Exp_common.validation_row list -> Tca_engine.Artifact.t
