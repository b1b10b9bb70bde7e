(** Multi-unit TCA scenarios: two heterogeneous accelerator units in one
    program, in the three compositions the extended model covers.

    Each scenario is a {!Meta.pair} (baseline vs accelerated trace)
    whose accelerated variant invokes {e two} TCA units — unit 0 with
    [latency0], unit 1 with [latency1] — plus the [Tca_unit] table to
    install via [Config.with_tca_units] and the per-unit usage counts
    the composed model ([Equations.composed_speedup]) needs:

    - {e Alternating}: the two units take turns inside one loop,
      separated by application code — independent invocations, the
      straight summed form of the composition rule.
    - {e Chained}: unit 0 (fast) feeds unit 1 (slow) through a register
      ([chain] fraction 0.5): unit 0's region exports its result, unit
      1's region imports it, and in the accelerated variant accel 0's
      [dst] is accel 1's [src1], so the consumer dispatches into the
      window its producer already drained.
    - {e Contended}: both units invoked back to back with declared read
      footprints on disjoint warm lines, so simultaneous invocations
      contend on the shared memory ports (and, in the model, on the
      shared commit port). *)

type kind = Alternating | Chained | Contended

val kind_name : kind -> string
(** ["multi-alternating"], ["multi-chained"], ["multi-contended"] — the
    {!Meta.t.name} of the generated pair and the registry/CLI scenario
    name. *)

val all_kinds : kind list

type config = {
  kind : kind;
  n_pairs : int;  (** loop iterations; each invokes both units once *)
  unit_len : int;  (** baseline instructions per acceleratable region *)
  latency0 : int;  (** unit 0 (fast) compute latency, cycles *)
  latency1 : int;  (** unit 1 (slow) compute latency, cycles *)
  seed : int;
}

val config :
  ?n_pairs:int ->
  ?unit_len:int ->
  ?latency0:int ->
  ?latency1:int ->
  ?seed:int ->
  kind ->
  config
(** Defaults: 400 pairs (large enough that the cache-warmup transient
    is a small fraction of the run, as the model's steady-state IPC
    assumption needs), 50-instruction regions, latencies 10 and 60,
    seed 1; application blocks are 60 instructions. Validates positive
    sizes and [unit_len >= 4]. *)

type unit_usage = {
  unit_id : int;
  invocations : int;
  acceleratable_instrs : int;
  compute_latency : int;
}
(** Per-unit inputs for the composed model: unit [i]'s [v_i] is
    [invocations / baseline_instrs], its [a_i] is
    [acceleratable_instrs / baseline_instrs]. *)

type scenario = {
  pair : Meta.pair;
  tca_units : Tca_uarch.Tca_unit.t array;
      (** install with [Config.with_tca_units] before simulating the
          accelerated trace *)
  usage : unit_usage list;
  chained_fraction : float;
      (** the composition's [chained] parameter: 0 for Alternating, 0.5
          for Chained and Contended *)
}

val generate : config -> scenario
