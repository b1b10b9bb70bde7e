(** Core/accelerator concurrency analysis (paper Fig. 8 and Section VII).

    Full OoO integration (L_T) lets the core and the TCA execute at the
    same time, so the maximum obtainable program speedup is not [A] but
    [A + 1], reached when the work is balanced between the two: at
    coverage [a* = A / (A + 1)]. *)

val coverage_series :
  Params.core ->
  g:float ->
  accel:Params.accel_time ->
  coverages:float array ->
  Mode.t ->
  ((float * float) array, Diag.t) result
(** [(a, speedup)] for each coverage in [coverages] at fixed granularity
    [g]. Coverages below [a_min = g * v_min] are always feasible here
    because [v] is derived as [a / g]. Coverage 0 maps to speedup 1.
    [Error (Domain _)] on [g < 1] or an out-of-range coverage. *)

val ideal_peak_coverage : accel_factor:float -> (float, Diag.t) result
(** [A / (A + 1)]: the coverage at which core and TCA work are balanced. *)

val ideal_peak_speedup : accel_factor:float -> (float, Diag.t) result
(** [A + 1]. *)

val peak : (float * float) array -> (float * float, Diag.t) result
(** The [(x, y)] point with maximal [y]. [Error (Empty_input _)] on an
    empty series. *)

val local_maxima : (float * float) array -> (float * float) list
(** Interior points strictly greater than both neighbours — used to
    exhibit the NL_T local maximum the paper discusses. Total. *)
