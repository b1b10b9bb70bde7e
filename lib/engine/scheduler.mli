(** Supervised multicore scheduler for experiment jobs.

    Three phases: serial cache lookups, a parallel map over the misses
    on a {!Pool}, serial cache stores. Every miss runs under a per-task
    {e supervisor}: the body executes with the run policy's deadline
    threaded through {!Job.ctx.checkpoint} (and through [ctx.par] chunk
    boundaries), exactly once: bodies are pure ({!Job}), so a failure
    would recur on every attempt. Any escape — a typed [Diag.Error], a
    tripped deadline, an arbitrary exception — becomes a [Failed]
    outcome instead of propagating into the pool. A sweep with one poisoned point
    therefore still yields the other N-1 artifacts, plus a
    machine-readable {!failure_report}.

    Determinism contract: with [fail_fast = false] the full outcome
    list — statuses, diags, and hence the rendered
    failure report — is bit-identical across [--jobs 1] and [--jobs N].
    With [fail_fast = true] the set of [Skipped] jobs depends on
    completion timing under parallelism; only serial fail-fast runs are
    reproducible. *)

type policy = {
  deadline_s : float option;
      (** Per-job wall-clock budget, enforced cooperatively at
          {!Job.ctx.checkpoint} / [par] chunk boundaries; a tripped
          budget fails the job with [Diag.Deadline]. [None] = no
          deadline. The diag records the configured budget, not the
          elapsed time, so reports stay bit-identical across [--jobs]. *)
  fail_fast : bool;
      (** [true]: after the first failure, not-yet-started jobs are
          [Skipped]. [false] (keep-going, the default): every job runs
          to an outcome. *)
}

val default_policy : policy
(** No deadline, keep-going. *)

type failure = { diag : Tca_util.Diag.t }

type status =
  | Done of Artifact.t
  | Failed of failure
  | Skipped  (** never started: fail-fast tripped by an earlier failure *)

type outcome = {
  job : Job.t;
  fingerprint : string;  (** {!Job.fingerprint_digest} of the job *)
  status : status;
  cached : bool;  (** re-served from the cache, body not run *)
  seconds : float;  (** wall-clock of the body's run; 0 for hits/skips *)
  attempts : int;
      (** 1 for a job whose body ran, 0 for cache hits and skips *)
  telemetry : Tca_telemetry.Sink.t option;
      (** present for fresh (non-cached) runs when requested *)
}

val run :
  ?cache:Cache.t ->
  ?policy:policy ->
  ?quick:bool ->
  ?collect_telemetry:bool ->
  ?host_telemetry:Tca_telemetry.Sink.t ->
  ?jobs:int ->
  Job.t list ->
  outcome list
(** Execute the jobs; outcomes are returned in input order. [jobs]
    (default [1]) is the total parallelism: the pool gets [jobs - 1]
    worker domains and the calling domain participates. Only [Done]
    artifacts of fresh runs are stored to the cache. Never raises on
    job failure — inspect outcome statuses.

    Profiling hooks, all zero-cost when the respective sink is absent:
    with [collect_telemetry], each fresh task's sink additionally
    carries one [task.run] span (args: job, queue [wait_us], [gc_*]
    deltas from [Gc.quick_stat]), from which the metrics view
    derives the [task.wait.seconds] histogram and the [task.gc.*]
    counters. With [host_telemetry], the scheduler's own phases are
    recorded into that sink as [cache.lookup], [pool.spawn],
    [sched.batch], [pool.shutdown] and [cache.store] spans on the
    calling domain's lane. Timing uses the monotonic clock
    ({!Tca_telemetry.Timing}). *)

val artifact : outcome -> Artifact.t option

val artifact_exn : outcome -> Artifact.t
(** @raise Tca_util.Diag.Error the failure's diag (or [Invalid] for a
    skipped job). *)

val first_failure : outcome list -> Tca_util.Diag.t option
(** Diag of the first failed outcome in input order — drives the
    process exit code. *)

val failure_report : outcome list -> Tca_util.Json.t
(** Machine-readable run report: succeeded/cached/failed/skipped counts
    plus one record per failure (job, fingerprint, diag kind, rendered
    diag, exit code) and the skipped-job names. Contains no
    wall-clock times and no backtraces, so keep-going reports are
    bit-identical across [--jobs 1] / [--jobs N]. *)

val diag_kind : Tca_util.Diag.t -> string
(** Stable snake_case tag for a diag variant, as used in the report. *)

val join_telemetry : into:Tca_telemetry.Sink.t -> outcome list -> unit
(** Join every outcome's sink into [into], in outcome order (= input
    order). Joined into a fresh sink, this equals the trace a serial run
    with one shared sink would produce. *)

val run_profiled :
  ?quick:bool -> ?jobs:int -> Job.t list -> outcome list * Tca_telemetry.Sink.t
(** The profiled run of [tca profile]: {!run} without a cache, with
    [collect_telemetry] and a fresh host sink, all inside one
    {!Tca_telemetry.Profiler.total_span_name} span on the calling
    domain's lane. The task sinks are joined into the host sink, in
    outcome order, under a [telemetry.merge] span inside the total
    span, so {!Tca_telemetry.Profiler.of_sink} on the returned sink
    attributes the whole run. *)
