(** Cycle-level out-of-order pipeline: dispatch, OoO issue, execute,
    in-order commit, with TCA coupling semantics.

    Mechanisms (paper Section IV):
    - an [Accel] instruction occupies one ROB entry and commits in order;
    - with [allow_leading = false] it is non-speculative: it may begin
      execution only once it reaches the ROB head (window drain);
    - with [allow_trailing = false] it serialises the pipeline: no younger
      instruction dispatches until it commits;
    - its memory requests arbitrate for the core's memory ports with
      age-order priority, at most one 64 B line per request;
    - its unit's configuration cost ((T1)-(T3)) and, under [Exclusive]
      occupancy, the unit's previous invocation gate it through
      {!Tca_unit.State}.

    Trace-driven approximation: mispredicted branches stall the front end
    from their dispatch until resolution plus the redirect penalty, and
    wrong-path instructions are not executed; consequently speculative
    TCAs are never actually squashed (the paper's modes differ in timing,
    which is what is under study, not recovery cost). *)

type probe = {
  on_cycle :
    cycle:int -> dispatched:int -> issued:int -> executing:int ->
    rob_occupancy:int -> unit;
}
(** Called once per simulated cycle, every cycle of the run, with that
    cycle's dispatch and issue counts, executing entries and ROB
    occupancy. *)

type outcome =
  | Complete of Sim_stats.t  (** the whole trace committed *)
  | Partial of { stats : Sim_stats.t; diag : Tca_util.Diag.t }
      (** the cycle watchdog expired first: [stats] is the snapshot at
          expiry and [diag] is the matching {!Tca_util.Diag.Watchdog}
          diagnostic ([diag.committed = stats.committed] always) *)

val stats_of_outcome : outcome -> Sim_stats.t

val default_cycle_budget : Trace.t -> int
(** The watchdog budget used when [Config.max_cycles] is [None]:
    [100_000 + 500 * length], generous for any real trace. *)

val validate : Config.t -> Trace.t -> (unit, Tca_util.Diag.t) result
(** The checks {!run} makes before simulating: {!Config.validate}, then
    that every accel instruction names a unit of [Config.tca_units]. *)

val run :
  ?probe:probe ->
  ?telemetry:Tca_telemetry.Sink.t ->
  Config.t ->
  Trace.t ->
  (outcome, Tca_util.Diag.t) result
(** Simulate the trace. [Error] only for an invalid configuration (see
    {!Config.validate}); a simulation that exceeds its cycle budget
    ([Config.max_cycles] or {!default_cycle_budget}) is NOT an error but a
    [Partial] outcome carrying the statistics accumulated so far, so
    sweeps can keep the data and record the diagnostic.

    Without [?probe] and [?telemetry] the run may jump a quiet stretch:
    after a cycle in which nothing completed, committed, issued or
    dispatched, it moves straight to the next cycle at which anything
    can change and adds the skipped cycles' counters in bulk. The
    results are identical to stepping every cycle, as an instrumented
    run does, the watchdog expiry included.

    [?telemetry] attaches an event sink; the run then emits, on the
    sink's sampling interval, [sim.stalls] / [sim.pipeline] / [sim.rob]
    counter deltas (the final partial interval included, so each series
    sums exactly to its {!Sim_stats} total), an [accel.invoke] span per
    accelerator invocation, [accel.dispatch] / [flush.mispredict]
    instants and a whole-run [sim.run] span. Instrumentation is
    observation-only: results are bit-identical with and without a
    sink. *)

val run_exn :
  ?probe:probe -> ?telemetry:Tca_telemetry.Sink.t -> Config.t -> Trace.t ->
  Sim_stats.t
(** [Complete] stats or raises {!Tca_util.Diag.Error} — on an invalid
    configuration and on watchdog expiry alike (the pre-typed-error
    behaviour of the deadlock guard). *)
