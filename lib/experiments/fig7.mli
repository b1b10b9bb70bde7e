(** Fig. 7: heatmaps of predicted speedup (and slowdown) over invocation
    frequency x acceleratable fraction, for the high-performance and
    low-performance cores under each of the four modes, with the
    heap-manager and GreenDroid fixed-granularity curves overlaid.
    A = 1.5 throughout, as in the paper's energy-motivated scenario. *)

type map = {
  core_name : string;
  mode : Tca_model.Mode.t;
  grid : Tca_model.Grid.t;
  slowdown_fraction : float;
}

val run :
  ?telemetry:Tca_telemetry.Sink.t -> ?par:Tca_util.Parmap.t ->
  ?cols:int -> ?rows:int -> unit -> map list
(** Default 48 columns (v in 10^-6 .. 10^-1, log) x 17 rows (a in
    0.05 .. 0.95). Eight maps: 2 cores x 4 modes. [?par] parallelises
    each grid's row sweep with identical results. *)

val artifact : map list -> Tca_engine.Artifact.t
(** ASCII heatmaps as notes in the text view, with 'H' marking the
    heap-manager curve and 'G' the mean GreenDroid-function curve; the
    long-format cell table (core, mode, coverage, frequency, speedup;
    feasible cells only) in the CSV/JSON views. *)
