(** Shared description of a baseline/accelerated workload pair: the
    quantities the analytical model takes as inputs ([a], [v], accelerator
    timing) plus bookkeeping for the experiment drivers. {!make} reads
    them off the traces, so a generator only emits instructions. *)

type t = {
  name : string;
  baseline_instrs : int;
  accelerated_instrs : int;  (** including the TCA instructions *)
  invocations : int;
  acceleratable_instrs : int;
      (** baseline instructions replaced by TCA invocations *)
  v : float;  (** invocations / baseline instructions *)
  a : float;  (** acceleratable / baseline instructions *)
  avg_reads_per_invocation : float;  (** TCA cache-line read requests *)
  avg_writes_per_invocation : float;
  avg_fresh_lines_per_invocation : float;
      (** read lines expected NOT to be L1-resident (first touch within
          the blocking reuse pattern) — drives the miss term of the
          latency estimate *)
  compute_latency : int;  (** TCA compute cycles per invocation *)
}

type pair = {
  baseline : Tca_uarch.Trace.t;
  accelerated : Tca_uarch.Trace.t;
  meta : t;
}

val make :
  name:string ->
  baseline:Tca_uarch.Trace.t ->
  accelerated:Tca_uarch.Trace.t ->
  ?fresh_lines:(reads:float -> float) ->
  compute_latency:int ->
  unit ->
  pair
(** Reads the model inputs off the traces: [invocations] counts the
    accelerated trace's [Accel] instructions, [acceleratable_instrs] is
    the baseline length minus the accelerated trace's other
    instructions, [v] and [a] divide those by the baseline length, and
    the read and write means average the invocations' declared lines (0
    without an invocation). [fresh_lines ~reads] (default 0) maps the
    mean reads to the expected fresh (non-L1-resident) lines: the
    generator's knowledge of its reuse pattern, which traces lack.
    Raises [Invalid_argument] on an empty baseline or an implied
    acceleratable count outside [\[0, baseline length\]]. *)

val pp : Format.formatter -> t -> unit
