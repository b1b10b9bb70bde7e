(** Facade over the static trace analyzer: one call produces the full
    report (instruction counts, DAG statistics, performance bounds, lint
    findings and, when a baseline trace is supplied, the derived
    analytical-model inputs), plus thin aliases for the common single
    passes. *)

type report = {
  counts : Tca_uarch.Trace.counts;
  dag_stats : Dag.stats;
  bounds : Bounds.t;
  findings : Finding.t list;
  derived : Derive.t option;
      (** present when a baseline trace was supplied and derivation
          succeeded *)
  derive_error : string option;
      (** why derivation failed, when a baseline was supplied *)
}

val analyze :
  ?baseline:Tca_uarch.Trace.t ->
  ?config_break_even:float ->
  cfg:Tca_uarch.Config.t ->
  Tca_uarch.Trace.t ->
  report
(** The DAG and lint passes run at the configured machine's L1 line
    size ([cfg.mem.l1]), not the 64-byte default. [config_break_even]
    is forwarded to {!Lint.run}: when given, traces whose mean
    instructions-per-invocation sits below it gain a
    {!Finding.Config_granularity} warning. *)

val bounds : cfg:Tca_uarch.Config.t -> Tca_uarch.Trace.t -> Bounds.t

val report_to_json : report -> Tca_util.Json.t
(** Shares the [counts] schema with [tca trace-report] via
    {!Tca_uarch.Trace.counts_to_json}. Includes a ["finding_counts"]
    object with per-severity totals (["error"], ["warning"], ["info"])
    so CI gates can threshold without walking the findings list. *)
