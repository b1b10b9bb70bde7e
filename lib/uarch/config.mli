(** Core simulator configuration, including the TCA coupling mode under
    test.

    The coupling record carries the two hardware decisions of the paper:
    [allow_leading] (may the TCA execute speculatively, before it reaches
    the ROB head?) and [allow_trailing] (may younger instructions dispatch
    while the TCA is in flight?). They correspond directly to gem5's
    non-speculative and serialize-after instruction flags. *)

type coupling = { allow_leading : bool; allow_trailing : bool }

val coupling_nl_nt : coupling
val coupling_l_nt : coupling
val coupling_nl_t : coupling
val coupling_l_t : coupling
val all_couplings : coupling list
(** In the paper's order: NL_NT, L_NT, NL_T, L_T. *)

val coupling_name : coupling -> string

type tca_occupancy =
  | Pipelined
      (** the accelerator accepts a new invocation every cycle (its
          datapath is fully pipelined); concurrent invocations overlap *)
  | Exclusive
      (** one invocation at a time: the next TCA instruction cannot begin
          until the previous one completes — the single-instance,
          unpipelined design point *)

type latencies = {
  int_alu : int;
  int_mult : int;
  fp_alu : int;
  fp_mult : int;
}

type t = {
  dispatch_width : int;  (** front-end μops per cycle (fetch = dispatch) *)
  issue_width : int;  (** OoO select width *)
  commit_width : int;
  rob_size : int;
  iq_size : int;
  lsq_size : int;  (** combined load/store queue entries *)
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  mem_ports : int;
  frontend_depth : int;  (** mispredict redirect penalty, cycles *)
  commit_depth : int;  (** completion-to-commit latency, cycles *)
  latencies : latencies;
  bpred : Bpred.kind;
  mem : Mem_hier.config;
  coupling : coupling;
  tca_occupancy : tca_occupancy;
  tca_units : Tca_unit.t array;
      (** the accelerator units, indexed by {!Isa.accel.unit_id} (a
          unit's [id] must equal its position). Defaults to a single
          {!Tca_unit.default} unit 0 — the classic single-TCA machine.
          [coupling] and [tca_occupancy] apply to every unit. *)
  tca_speculate_fraction : float option;
      (** partial speculation (paper Section VIII): when [Some p], each
          TCA invocation is independently allowed to execute
          speculatively with probability [p] (deterministic per dynamic
          instance) — e.g. only past high-confidence branches —
          overriding the coupling's leading flag. [None] = the coupling
          decides. *)
  max_cycles : int option;
      (** safety cap; [None] derives a generous default from trace size *)
}

val default_latencies : latencies
(** 1 / 3 / 3 / 4 cycles. *)

val default_mem : Mem_hier.config
(** 32 kB 8-way L1 (2-cycle), 1 MB 16-way L2 (12-cycle), 100-cycle
    memory. *)

val hp : unit -> t
(** High-performance core: 4-wide, 256-entry ROB, deep pipeline —
    matching the model's [Presets.hp_core] structural parameters —
    with the [L_T] coupling. *)

val lp : unit -> t
(** Low-performance core: 2-wide, 64-entry ROB, shallow pipeline, with
    the [L_T] coupling. *)

val with_coupling : t -> coupling -> t

val accel_latency_estimate :
  t -> reads:float -> writes:float -> fresh_lines:float -> compute:float ->
  float
(** First-order estimate of one TCA invocation's latency from its mean
    footprint: the L1 hit latency for the first read line, one line per
    memory port per cycle after it, one L2 hit latency when any fresh
    read line is expected, [compute] cycles, then writes at one line per
    port per cycle — the "explicitly provided latency" the model takes
    for memory-traffic TCAs. *)

val with_tca_units : t -> Tca_unit.t array -> t

val validate : t -> (unit, Tca_util.Diag.t) result
(** Structural sanity. [Domain] diagnostics name the offending
    [Config.] field: every width, size and core latency at least 1 (the
    ROB at least 2, [commit_depth] at least 0); the predictor's table
    bits in [\[1, 24\]]; the L1 and L2 hit latencies and
    [mem.mem_latency] at least 1; [tca_speculate_fraction] finite and
    inside [\[0, 1\]]; [max_cycles], when given, at least 1. An empty
    [tca_units] table, or a unit whose id is not its position, is
    [Invalid]; a unit failing {!Tca_unit.validate} returns that
    diagnostic. *)
