(** 2-D speedup maps over (invocation frequency, acceleratable fraction)
    — the raw material of the paper's Fig. 7 heatmaps. *)

type t = {
  freqs : float array;  (** invocation frequencies, one per column *)
  coverages : float array;  (** acceleratable fractions, one per row *)
  cells : float array array;
      (** [cells.(row).(col)] = predicted speedup; [nan] where the
          combination is infeasible (granularity [a/v < 1]) or where the
          point failed (see [failures]) *)
  failures : ((int * int) * Diag.t) list;
      (** skip-and-record: points whose evaluation produced a diagnostic
          rather than a number, as [((row, col), diag)]. The sweep never
          aborts on a bad point. *)
}

val compute :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  Params.core ->
  accel:Params.accel_time ->
  freqs:float array ->
  coverages:float array ->
  Mode.t ->
  (t, Diag.t) result
(** [Error (Empty_input _)] on an empty axis; per-point failures are
    recorded in [failures], never raised. [?telemetry] wraps the sweep
    in a [grid.compute] wall-clock span whose [rows] and [cols]
    arguments give the [grid.cells] metric. [?par] (default serial)
    evaluates rows in parallel; the result — cells, failure list and
    its order — is identical to the serial one. *)

val slowdown_fraction : t -> float
(** Fraction of feasible cells with speedup < 1 — a scalar summary of how
    dangerous a mode is for the swept region. *)

val accelerator_curve :
  t -> granularity:float -> ((int * int) list, Diag.t) result
(** Cells (row, col) closest to the fixed-granularity locus [a = g * v]:
    where a fixed-function accelerator of granularity [g] falls for each
    achievable coverage, as drawn for the heap manager and GreenDroid in
    Fig. 7. [Error (Domain _)] when [granularity < 1]. *)
