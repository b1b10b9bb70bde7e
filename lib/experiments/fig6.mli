(** Fig. 6: blocked DGEMM with 2x2, 4x4 and 8x8 multiply-accumulate TCAs
    — measured (simulator) vs estimated (model) speedup over the software
    element-wise kernel, for all four modes, log-scale magnitudes. *)

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t -> ?n:int ->
  unit -> Exp_common.validation_row list
(** [n] is the matrix dimension (default 64; the paper uses 512 with the
    identical 32x32 blocking — the per-block instruction mix and
    TCA-to-core work ratio do not depend on n, and n = 128 is the
    practical ceiling for a materialised trace). One workload row group
    per accelerator dimension. *)

val summary : Exp_common.validation_row list -> (Tca_model.Validate.summary, Tca_model.Diag.t) result
val trends_hold : Exp_common.validation_row list -> bool
val artifact : Exp_common.validation_row list -> Tca_engine.Artifact.t
