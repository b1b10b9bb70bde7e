(** Input parameters of the analytical model (paper Table I).

    Core parameters describe the processor; scenario parameters describe
    the workload/accelerator pair under study.

    Smart constructors return [('a, Diag.t) result] and reject NaN and
    infinities on every float field, so no non-finite value can enter the
    model. The [*_exn] forms raise {!Diag.Error} and are for callers
    whose inputs are correct by construction (presets, tests). *)

type core = {
  ipc : float;  (** average program IPC before acceleration *)
  rob_size : int;  (** [s_ROB] *)
  issue_width : int;  (** [w_issue], front-end dispatch width *)
  commit_stall : float;  (** [t_commit], back-end commit latency in cycles *)
  drain_beta : float;
      (** exponent of the window/critical-path power law (default 2.0,
          the square-root law reported for SPEC2006) *)
}

type accel_time =
  | Factor of float
      (** acceleration factor [A]: the accelerator runs the acceleratable
          instructions at [A * IPC] (paper eq. (2)) *)
  | Latency of float
      (** explicit per-invocation accelerator execution time in cycles,
          "an explicitly provided latency inserted by the architect" *)

(** {2 Configuration cost}

    The paper charges an invocation only its execution time plus
    serialization; real tightly-coupled accelerators also pay a
    per-invocation configuration cost [t_config] (CSR command writes,
    descriptor setup, DMA programming). Three mechanisms, modeled by
    terms (T1)-(T3) of {!Equations}: *)

type config_cost =
  | No_config  (** free configuration; (T1)-(T3) all reduce to eqs. (4)-(9) *)
  | Sync of float
      (** (T1) synchronous CSR writes: [t_config] cycles on the critical
          path of every invocation *)
  | Queued of { t_config : float; depth : int }
      (** (T2) queued descriptors: a serial descriptor engine takes
          [t_config] cycles per descriptor, overlapped with execution up
          to [depth] outstanding descriptors. Steady-state invocation
          period is [max t_interval t_config] (the engine is a
          throughput bound, not an additive latency). *)
  | Preprogrammed of { t_config : float; invocations : int }
      (** (T3) pre-programmed: a one-time [t_config]-cycle programming
          cost amortized over [invocations] invocations of the run,
          [t_config / invocations] per invocation *)

(** {2 Multi-unit composition types}

    Declared before {!scenario} so the single-unit labels, defined last,
    stay the unqualified default for existing code. A machine with N
    heterogeneous TCA units is described by one {!unit_scenario} per
    unit plus two coupling knobs: the fraction of invocations that are
    {e chained} (an invocation whose result feeds the next, so their
    window drains overlap rather than repeat), and whether the units
    share the core's commit port or own private writeback ports (the
    [Tca_unit] contention knob of the simulator). *)

type commit_port =
  | Shared  (** all units contend on the core's commit port *)
  | Private  (** each unit owns a writeback port; no cross-unit contention *)

type unit_scenario = {
  a : float;  (** fraction of all instructions this unit accelerates *)
  v : float;  (** this unit's invocations / total instructions *)
  accel : accel_time;
  config : config_cost;  (** this unit's configuration mechanism *)
}

type composition = {
  units : unit_scenario list;
  chained : float;
      (** fraction of invocations chained into the preceding one, in
          [0, 1]: chained invocations share one window drain but
          serialize on the shared commit port *)
  commit_port : commit_port;
  drain : Tca_interval.Drain.spec;
}

type scenario = {
  a : float;  (** fraction of acceleratable code, in [0, 1] *)
  v : float;  (** invocation frequency: invocations / total instructions *)
  accel : accel_time;
  drain : Tca_interval.Drain.spec;  (** [t_drain] override or Auto *)
  config : config_cost;  (** configuration mechanism; [No_config] default *)
}

val core : ?commit_stall:float -> ?drain_beta:float ->
  ipc:float -> rob_size:int -> issue_width:int -> unit ->
  (core, Diag.t) result
(** Smart constructor; [Error (Domain _)] on out-of-range parameters,
    [Error (Non_finite _)] on NaN/infinite floats. [commit_stall]
    defaults to 5 cycles, [drain_beta] to 2. *)

val validate_config : config_cost -> (config_cost, Diag.t) result
(** [Sync t] and both [t_config] fields must be finite and non-negative;
    [Queued.depth] and [Preprogrammed.invocations] must be positive. *)

val scenario : ?drain:Tca_interval.Drain.spec -> ?config:config_cost ->
  a:float -> v:float -> accel:accel_time -> unit ->
  (scenario, Diag.t) result
(** Validates [0 <= a <= 1], [v >= 0], [a >= v] when [v > 0] (an
    invocation covers at least one instruction), positive accel factor /
    non-negative latency, finite non-negative fixed drain, and the
    {!validate_config} domain. [config] defaults to [No_config]. *)

val scenario_exn : ?drain:Tca_interval.Drain.spec -> ?config:config_cost ->
  a:float -> v:float -> accel:accel_time -> unit -> scenario
(** Raises {!Diag.Error}. *)

(** {2 Multi-unit composition constructors} *)

val unit_scenario :
  ?config:config_cost ->
  a:float -> v:float -> accel:accel_time -> unit ->
  (unit_scenario, Diag.t) result
(** Same domain as {!scenario}: [0 <= a <= 1], [v >= 0], [a >= v] when
    [v > 0], valid accel time, valid config cost. *)

val unit_scenario_exn :
  ?config:config_cost ->
  a:float -> v:float -> accel:accel_time -> unit -> unit_scenario

val composition :
  ?drain:Tca_interval.Drain.spec -> ?chained:float ->
  ?commit_port:commit_port -> units:unit_scenario list -> unit ->
  (composition, Diag.t) result
(** Validates every unit, requires a non-empty unit list with total
    acceleratable fraction [Σ a_i <= 1] and [chained] in [0, 1].
    [chained] defaults to 0, [commit_port] to [Shared], [drain] to
    [Auto]. *)

val composition_exn :
  ?drain:Tca_interval.Drain.spec -> ?chained:float ->
  ?commit_port:commit_port -> units:unit_scenario list -> unit ->
  composition

val composition_of_scenario : scenario -> composition
(** The single-unit lift: one unit with the scenario's [a], [v] and
    accel time, [chained = 0], [Shared] port. {!Equations} guarantees
    the composed model evaluates this to exactly the single-unit
    equations. *)

val granularity : scenario -> (float, Diag.t) result
(** [a / v]: average acceleratable instructions per invocation.
    [Error (Invalid _)] when [v = 0]. *)

val scenario_of_granularity :
  ?drain:Tca_interval.Drain.spec -> ?config:config_cost ->
  a:float -> g:float -> accel:accel_time -> unit ->
  (scenario, Diag.t) result
(** Convenience used by the granularity sweeps: [v = a / g]. Requires a
    finite [g >= 1]. *)

val pp_core : Format.formatter -> core -> unit
val pp_scenario : Format.formatter -> scenario -> unit
val pp_composition : Format.formatter -> composition -> unit

val glossary : (string * string) list
(** Paper Table I: symbol, meaning. *)
