(** Fig. 3: effective ILP in the execute stage across one interval
    (leading instructions, one TCA, trailing instructions) under the four
    modes, measured directly from the pipeline's per-cycle issue
    occupancy. *)

type timeline = {
  mode : Tca_model.Mode.t;
  cycles : int;
  issued : int array;  (** instructions entering execute, per cycle *)
}

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?trailing:int -> ?accel_latency:int -> unit ->
  timeline list
(** 150 leading μops; defaults: 150 trailing μops, 40-cycle TCA. The
    four couplings are simulated independently; [?par] runs them in
    parallel with identical results (per-coupling sinks joined in
    coupling order). *)

val artifact : timeline list -> Tca_engine.Artifact.t
(** Bar strips (one character per 2 cycles) as notes, plus a
    machine-readable timeline table in the CSV/JSON views only. *)
