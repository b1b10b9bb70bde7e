(** Extension X6: high-performance vs. low-performance core sensitivity,
    validated in the simulator (paper Section VI, observation 1: "high
    performance cores are more sensitive to different modes of TCA ...
    For low performance cores, the impact on OoO integration is less
    severe").

    The same heap workload runs on the HP (4-wide, 256-ROB) and LP
    (2-wide, 64-ROB) simulated cores; sensitivity is the relative spread
    between the best and worst mode's measured speedups. *)

type core_result = {
  core_name : string;
  base_ipc : float;
  mode_speedups : (Tca_model.Mode.t * float) list;
  spread : float;  (** (best - worst) / worst *)
}

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> unit -> core_result list
(** [HP; LP]. [?par] spreads each core's five simulator runs over a
    pool with identical results. *)

val hp_more_sensitive : core_result list -> bool

val artifact : core_result list -> Tca_engine.Artifact.t
