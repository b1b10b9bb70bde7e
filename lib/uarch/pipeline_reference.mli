(** An independent implementation of the out-of-order core, kept as a
    differential oracle for the optimized {!Pipeline}.

    Same contract as {!Pipeline.run} without the instrumentation hooks —
    the same validation ({!Pipeline.validate}), watchdog budget and
    statistics — but written in the straightforward form the optimized
    path replaces (per-cycle list churn, closures, [Isa.instr] decoding
    on every access). The golden tests, the fuzz harness's parity case
    and [bench simulator] all assert that {!Pipeline.run} reproduces
    this implementation's {!Sim_stats} bit for bit; the throughput ratio
    between the two is the machine-independent speedup recorded in
    [BENCH_results.json] and guarded by CI.

    The accelerator policy is not re-implemented here: both pipelines
    call {!Tca_unit.State}, which the exact-cycle tests pin to closed
    forms. Do not optimize this module; on a deliberate semantic change
    to the core, change both pipelines and regenerate the goldens
    ([dune exec test/gen_golden.exe]). *)

val run : Config.t -> Trace.t -> (Pipeline.outcome, Tca_util.Diag.t) result
(** Reference semantics of {!Pipeline.run}. *)

val run_exn : Config.t -> Trace.t -> Sim_stats.t
(** Reference semantics of {!Pipeline.run_exn}: the stats of a complete
    run; raises {!Tca_util.Diag.Error} on invalid configuration or a
    watchdog-truncated run. *)
