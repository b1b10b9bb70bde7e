(** Extension X9: string-function TCA validation — the "string
    functions" marker of the paper's Fig. 2 (STTNI-style acceleration),
    with per-call byte counts from a real string arena. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> unit ->
  Exp_common.validation_row list * float
(** Rows plus the mean bytes inspected per call (finest gap). [?par]
    evaluates the invocation gaps concurrently with identical rows and
    merged trace. *)

val artifact :
  Exp_common.validation_row list * float -> Tca_engine.Artifact.t
