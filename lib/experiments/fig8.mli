(** Fig. 8: predicted speedup vs. acceleratable fraction for a
    100-instruction TCA with A = 2, exhibiting the core/TCA concurrency
    bound: peak speedup A + 1 = 3 at a = 2/3 in L_T mode, and the NL_T
    local maximum the paper discusses. *)

type series = {
  mode : Tca_model.Mode.t;
  points : (float * float) array;  (** (a, speedup) *)
  peak : float * float;
}

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?points:int -> unit -> series list
(** Default 97 coverage points, on the HP core. *)

val ideal_peak : float * float
(** [(2/3, 3.0)]: the analytical optimum for A = 2. *)

val artifact : series list -> Tca_engine.Artifact.t
(** A thinned table (every 4th point) for the text view, the full series
    table for CSV/JSON, and the peak/optimum notes. *)
