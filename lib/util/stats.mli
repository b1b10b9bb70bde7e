(** Descriptive statistics over float arrays, used for error reporting
    (model-vs-simulation validation) and benchmark summaries.

    Every aggregate returns [('a, Diag.t) result]: [Error (Empty_input _)]
    on an empty array, [Error (Non_finite _)] when a NaN or infinity
    enters (or would leave) the computation, so a poisoned element can
    never silently corrupt a geomean. *)

val mean : float array -> (float, Diag.t) result
(** Arithmetic mean. *)

val geomean : float array -> (float, Diag.t) result
(** Geometric mean. All elements must be positive and finite. *)

val variance : float array -> (float, Diag.t) result
(** Population variance. *)

val stddev : float array -> (float, Diag.t) result
val max : float array -> (float, Diag.t) result
val median : float array -> (float, Diag.t) result
val median_exn : float array -> float

val percentile : float array -> float -> (float, Diag.t) result
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. *)

val percentile_exn : float array -> float -> float

val relative_error : measured:float -> estimated:float -> (float, Diag.t) result
(** [(estimated - measured) / measured]. Positive means the estimate is
    optimistic relative to the measurement. [Error (Invalid _)] when
    [measured = 0]. *)

val mape : measured:float array -> estimated:float array -> (float, Diag.t) result
(** Mean absolute percentage error, in percent. [Error (Ragged_input _)]
    when the arrays differ in length. *)
