(** The adaptive synthetic microbenchmark (paper Sections IV and V-A).

    A program of [n_units] equal units of application code; [n_chunks]
    randomly chosen units are acceleratable. The baseline runs them as
    ordinary code; the accelerated variant replaces each chosen unit with
    a single TCA instruction. Increasing [n_chunks] raises both the
    invocation frequency and the acceleratable fraction together, exactly
    as the paper's sweep does, and random placement deliberately violates
    the model's uniform-distribution assumption. *)

type config = {
  n_units : int;
  n_chunks : int;  (** acceleratable units, [<= n_units] *)
  accel_latency : int;  (** TCA execution cycles per invocation *)
  app : Codegen.config;
  seed : int;
}

val config :
  ?app:Codegen.config ->
  ?seed:int ->
  n_units:int ->
  n_chunks:int ->
  accel_latency:int ->
  unit ->
  config
(** Units are 50 instructions long. [app] defaults to
    {!Codegen.model_friendly_config}, [seed] to 1. Validates
    [0 <= n_chunks <= n_units] and a positive [n_units]. *)

val latency_for_factor :
  unit_len:int -> ipc:float -> accel_factor:float -> int
(** The TCA latency equivalent to running a unit at [accel_factor * ipc]:
    [round (unit_len / (accel_factor * ipc))], at least 1 — how the
    experiments translate a desired [A] into an instruction latency. *)

val generate : config -> Meta.pair
