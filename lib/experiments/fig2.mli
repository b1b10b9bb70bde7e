(** Fig. 2: program speedup vs. accelerator granularity for the four TCA
    modes on an ARM-A72-like core, with 30% acceleratable code and a 3x
    acceleration factor, annotated with the reference accelerators. *)

type row = {
  g : float;
  speedups : (Tca_model.Mode.t * float) list;
}

val run : ?telemetry:Tca_telemetry.Sink.t -> ?points:int -> unit -> row list
(** Granularity sweep over [10^1 .. 10^9], default 33 points. *)

val artifact : row list -> Tca_engine.Artifact.t
(** Sweep table, then the reference-accelerator markers. *)
