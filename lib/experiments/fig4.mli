(** Fig. 4: analytical-model error against the cycle-level simulator over
    the adaptive synthetic microbenchmark, sweeping the number of
    accelerator instructions (which raises invocation frequency and the
    acceleratable fraction together, with randomly placed invocations). *)

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t -> ?quick:bool ->
  unit -> Exp_common.validation_row list
(** [quick] (default false) shrinks the trace for test use; [?par]
    evaluates the chunk counts in parallel with identical rows. *)

val artifact : Exp_common.validation_row list -> Tca_engine.Artifact.t
