(** Convenience drivers on top of {!Pipeline}: run a workload's baseline
    and accelerated traces across the four TCA couplings, the common
    shape of every validation experiment. *)

type mode_result = {
  coupling : Config.coupling;
  stats : Sim_stats.t;
  speedup : float;  (** baseline cycles / accelerated cycles *)
  partial : Tca_util.Diag.t option;
      (** [Some (Watchdog _)] when this mode's run hit its cycle budget
          and [stats] is a truncated snapshot; [None] for a complete run *)
}

type comparison = {
  baseline : Sim_stats.t;
  baseline_partial : Tca_util.Diag.t option;
      (** watchdog diagnostic for the baseline run, if it was cut short *)
  modes : mode_result list;  (** in [Config.all_couplings] order *)
}

val run_batch :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  (Config.t * Trace.t) array ->
  (Pipeline.outcome, Tca_util.Diag.t) result array
(** Run every (configuration, trace) entry through {!Pipeline.run}, one
    result per entry in entry order. Nothing is decoded here: a trace
    carries its packed columns from construction (see {!Trace.decoded}),
    so every run of the same trace — mode comparisons, frequency sweeps,
    repetitions — reads the same columns. [?par]
    (default serial) spreads the runs over a pool with bit-identical
    results: each run records into a fork of [?telemetry], and the
    children are joined back in entry order whatever [par] is.
    Failures are contained per entry: an [Error] (bad configuration), a
    watchdog truncation ([Ok (Partial _)] with the diag in place — see
    {!Pipeline.run}) or even an exception escaping one entry's run
    (reported as [Error (Task_failure _)]) never poisons the other N-1
    results. *)

val compare_modes :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  cfg:Config.t ->
  baseline:Trace.t ->
  accelerated:Trace.t ->
  unit ->
  (comparison, Tca_util.Diag.t) result
(** Run the baseline once and the accelerated trace under all four
    couplings. The five runs are independent; [?par] (default serial)
    runs them in parallel with identical results. Each run records into
    a fork of the [?telemetry] sink, joined back in canonical order
    (baseline first, then [Config.all_couplings] order), so the merged
    trace does not depend on [par] either. Watchdog-truncated runs are
    kept (with [partial] set), not turned into errors. [Error] on an
    invalid configuration or (pathological) zero-cycle accelerated
    run. *)

val compare_modes_exn :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  cfg:Config.t -> baseline:Trace.t -> accelerated:Trace.t -> unit -> comparison
