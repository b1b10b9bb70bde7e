(** Extension X7: hash-map TCA validation — the third real-world
    accelerator family from the paper's Fig. 2 markers (after the heap
    manager and DGEMM), validated model-vs-simulator across invocation
    frequencies like Fig. 5.

    Unlike the heap TCA, the hash-map TCA has data-dependent cost: the
    probe count (and so the software μops replaced and the TCA's line
    traffic) comes from the live table's collision structure. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> unit ->
  Exp_common.validation_row list * float
(** Rows plus the mean probes per lookup measured at the finest gap.
    [?par] evaluates the invocation gaps concurrently with identical
    rows and merged trace. *)

val artifact :
  Exp_common.validation_row list * float -> Tca_engine.Artifact.t
