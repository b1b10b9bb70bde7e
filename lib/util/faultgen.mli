(** Seeded adversarial-input generators for the fault-injection harness.

    [Faultgen] produces hostile values — NaN, infinities, negative zero,
    denormals, huge magnitudes, empty and ragged aggregates — mixed with
    ordinary in-range values, all driven by a deterministic {!Prng} so a
    failing case is reproducible from its seed. The *_spec records mirror
    the shapes of the model's [Params] and the simulator's [Config]
    without depending on those libraries; the fuzz harness maps them onto
    the real smart constructors and asserts that every outcome is an [Ok]
    with finite contents or a structured [Diag.t] — never an escaped
    exception. *)

type t

val create : seed:int -> t
(** Equal seeds yield equal adversarial streams. *)

val float_adversarial : t -> float
(** Any float: NaN, [infinity], [neg_infinity], [0.], [-0.], denormals,
    [max_float]-scale magnitudes, negatives, and ordinary values. *)

val finite_float : t -> lo:float -> hi:float -> float
(** Ordinary finite value in [\[lo, hi\]]. *)

val fraction_adversarial : t -> float
(** Mostly in [\[0, 1\]]; sometimes outside it or non-finite. *)

val positive_adversarial : t -> float
(** Mostly positive and ordinary; sometimes zero, negative, huge, tiny or
    non-finite. *)

val int_adversarial : t -> int
(** Mostly small non-negative; sometimes zero, negative, or huge. *)

val size_adversarial : t -> max:int -> int
(** Mostly in [\[1, max\]]; sometimes 0, negative or far beyond [max]. *)

val array_adversarial : ?max_len:int -> t -> (t -> float) -> float array
(** Array of generated values; sometimes empty. *)

val matrix_adversarial : t -> float array array
(** Small float matrix; sometimes empty, sometimes ragged, cells drawn
    from {!float_adversarial}. *)

(** {2 Engine-layer faults}

    The shapes a misbehaving experiment job or a damaged cache file can
    take, for the engine fault-injection harness. The generator only
    names the fault; mapping it onto a job body lives in
    [Tca_engine.Inject] so this module stays dependency-free. *)

type engine_fault =
  | Raise  (** the job body raises *)
  | Hang  (** the body spins until the per-job deadline trips *)
  | Corrupt_artifact
      (** the body returns a structurally valid but wrong artifact *)

val engine_fault : t -> engine_fault

val corrupt_string : t -> string -> string
(** Damage a byte string the way torn writes and bit rot do: truncate at
    a random offset (possibly to empty), flip one random bit, or
    truncate then flip. Never returns the input unchanged; the empty
    input yields a single NUL byte. *)

(** Shape of the analytical model's core parameters (mirrors
    [Tca_model.Params.core]). *)
type core_spec = {
  ipc : float;
  rob_size : int;
  issue_width : int;
  commit_stall : float;
  drain_beta : float;
}

val core_spec : t -> core_spec

(** Shape of a workload scenario (mirrors [Tca_model.Params.scenario]):
    exactly one of [factor]/[latency] is meaningful, selected by
    [use_factor]. *)
type scenario_spec = {
  a : float;
  v : float;
  use_factor : bool;
  factor : float;
  latency : float;
  drain_fixed : float option;  (** [Some t] forces a fixed drain time *)
}

val scenario_spec : t -> scenario_spec

(** Shape of the cycle-level simulator's structural knobs (mirrors the
    integer fields of [Tca_uarch.Config.t]). *)
type uarch_spec = {
  dispatch_width : int;
  u_issue_width : int;
  commit_width : int;
  u_rob_size : int;
  iq_size : int;
  lsq_size : int;
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  mem_ports : int;
  frontend_depth : int;
  commit_depth : int;
  speculate_fraction : float option;
  watchdog_cycles : int option;  (** maps onto [Config.max_cycles] *)
}

val uarch_spec : t -> uarch_spec
