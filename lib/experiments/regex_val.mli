(** Extension X8: regular-expression TCA validation — the ~10^3-μop
    "regular expression" marker of the paper's Fig. 2, with scan lengths
    from a real NFA/DFA engine (data-dependent like the hash map, but an
    order of magnitude coarser). *)

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> unit ->
  Exp_common.validation_row list * float
(** Rows plus the mean characters scanned per search (finest gap).
    [?par] evaluates the invocation gaps concurrently with identical
    rows and merged trace. *)

val artifact :
  Exp_common.validation_row list * float -> Tca_engine.Artifact.t
