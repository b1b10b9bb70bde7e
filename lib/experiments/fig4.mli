(** Fig. 4: analytical-model error against the cycle-level simulator over
    the adaptive synthetic microbenchmark, sweeping the number of
    accelerator instructions (which raises invocation frequency and the
    acceleratable fraction together, with randomly placed invocations). *)

val chunk_counts : quick:bool -> int list
(** The sweep: [10; 25; 50; 100; 200; 400] (plus 800 in the full run). *)

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t -> ?quick:bool ->
  unit -> Exp_common.validation_row list
(** [quick] (default false) shrinks the trace for test use; [?par]
    evaluates the chunk counts in parallel with identical rows. *)

val summary : Exp_common.validation_row list -> (Tca_model.Validate.summary, Tca_model.Diag.t) result
val trends_hold : Exp_common.validation_row list -> bool
val artifact : Exp_common.validation_row list -> Tca_engine.Artifact.t
