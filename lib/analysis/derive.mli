(** Analytical-model inputs derived statically from a trace pair.

    Everything [Tca_workloads.Meta] records ([a], [v], the read/write
    sets) is here recovered by an independent pass over the traces: the
    accelerated fraction from the instruction
    count difference, the invocation rate from the [Accel] count, the
    per-invocation footprint from the accelerator read/write sets, and
    the expected fresh (L1-missing) lines per invocation from a static
    cache replay of the accelerated trace. The derived scenario feeds the
    paper's eqs. (1)-(9), closing the model-vs-simulator-vs-static
    three-way cross-check. *)

type t = {
  invocations : int;
  baseline_instrs : int;
  accelerated_instrs : int;
  acceleratable_instrs : int;
      (** baseline instructions replaced by accelerator invocations:
          [baseline - (accelerated - invocations)] *)
  a : float;  (** acceleratable fraction of the baseline *)
  v : float;  (** invocations per baseline instruction *)
  avg_reads : float;  (** accelerator read-set lines per invocation *)
  avg_writes : float;
  avg_fresh_lines : float;
      (** reads missing the L1 in a static replay of the accelerated
          trace through the configured hierarchy *)
  avg_compute_latency : float;
  accel_latency : float;
      (** per-invocation latency estimate in cycles
          ({!Tca_uarch.Config.accel_latency_estimate}) *)
  mean_leading : float;
      (** mean instructions between an invocation and its predecessor
          (or trace start) in the accelerated trace *)
  mean_trailing : float;
      (** mean instructions between an invocation and its successor (or
          trace end) *)
}

val of_pair :
  cfg:Tca_uarch.Config.t ->
  baseline:Tca_uarch.Trace.t ->
  accelerated:Tca_uarch.Trace.t ->
  (t, Tca_util.Diag.t) result
(** [Error (Invalid _)] when the accelerated trace has no [Accel]
    instruction or the implied acceleratable fraction falls outside
    [0, 1] (the traces are not a baseline/accelerated pair). *)

val scenario :
  ?drain:Tca_interval.Drain.spec -> t ->
  (Tca_model.Params.scenario, Tca_util.Diag.t) result
(** The derived [(a, v, Latency accel_latency)] as a model scenario. *)

val accel_factor : t -> ipc:float -> (float, Tca_util.Diag.t) result
(** The equivalent acceleration factor [A] such that
    [Factor A] reproduces [accel_latency] at the given baseline IPC:
    [A = acceleratable / (v_inv * latency * ipc)] per invocation. *)

val to_json : t -> Tca_util.Json.t
val pp : Format.formatter -> t -> unit
