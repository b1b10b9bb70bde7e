(** Parameter-sensitivity analysis: which model input actually decides
    the design?

    For early-stage estimates every input (IPC, A, v, a, t_commit, ROB
    size) carries uncertainty. This module perturbs each input by a
    relative amount and reports the speedup swing per mode — a tornado
    table — plus whether the *best-mode decision* is stable under the
    perturbation. *)

type parameter =
  | Ipc
  | Rob_size
  | Issue_width
  | Commit_stall
  | Coverage  (** a *)
  | Frequency  (** v *)
  | Acceleration  (** A or the explicit latency *)

val all_parameters : parameter list

type swing = {
  parameter : parameter;
  mode : Mode.t;
  low : float;  (** speedup with the parameter scaled by 0.8 *)
  high : float;  (** speedup with the parameter scaled by 1.2 *)
  magnitude : float;  (** |high - low| *)
}

val perturb :
  Params.core -> Params.scenario -> parameter -> float ->
  (Params.core * Params.scenario, Diag.t) result
(** Scale one parameter by the given factor, clamping to validity
    (coverage to [\[0, 1\]], integer parameters to at least 1, coverage
    >= v); every other input, the scenario's drain and configuration
    cost included, is kept. [Error] when the scaled parameter leaves the
    valid domain entirely (e.g. a non-finite factor). *)

val swings :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  Params.core -> Params.scenario -> Mode.t ->
  (swing list, Diag.t) result
(** One swing per parameter for the mode, sorted by decreasing magnitude
    (the tornado ordering), each parameter scaled by ±20%. [?telemetry]
    wraps the tornado evaluation in a [sensitivity.swings] wall-clock
    span. [?par] (default serial) evaluates the parameters in parallel
    with identical results, including which error is surfaced on
    failure. *)

val decision_stable :
  ?telemetry:Tca_telemetry.Sink.t ->
  Params.core -> Params.scenario -> (bool, Diag.t) result
(** Does the best mode stay the best under every single-parameter ±20%
    perturbation? *)

val rows : swing list -> string list list
val headers : string list
