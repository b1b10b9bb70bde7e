(** Semantic equivalence of a baseline/accelerated trace pair.

    The paper's model assumes the accelerated trace {e computes the same
    thing} as the baseline with the acceleratable work replaced by
    invocations; this module checks that assumption statically from the
    {!Effects} summaries of the two traces, and produces a minimal
    divergence witness when it fails.

    Two proof strategies:

    - {b align}: greedy alignment of the two instruction streams (common
      instructions match in order; every accelerated-side invocation
      opens a {e region} absorbing the baseline instructions it
      replaces). Equivalence then means (1) every matched common
      instruction reads corresponding values, where a value produced
      inside baseline region [k] corresponds to any declared output of
      invocation [k] (the uninterpreted-function binding), and (2) the
      final register file and memory image agree location-by-location
      under the same binding. Region-private effects the accelerated
      variant cannot see (scratch registers, hidden allocator state) are
      audited, not failed — except a region write to application-visible
      memory, which is a real divergence (an undeclared accelerator
      write).
    - {b dataflow}: for wholesale kernel rewrites with no
      instruction-level correspondence (dgemm), compares the final
      memory image at line granularity: identical written-line domains,
      and every memory input a baseline line's value depends on must be
      inside the transitive declared read footprint of its accelerated
      writers. Registers are kernel scratch under this contract.

    [`Auto] uses align when the streams align completely, falls back to
    dataflow when fewer than half the common instructions match, and
    reports the misalignment as a divergence in between. *)

type strategy = Align | Dataflow

val strategy_name : strategy -> string

(** {2 Alignment} (exposed for {!Assume}'s footprint audit) *)

type region = {
  ord : int;  (** invocation ordinal, in accelerated-trace order *)
  accel_index : int;  (** accelerated-trace index of the invocation *)
  base_start : int;  (** first baseline index absorbed *)
  base_len : int;
}

type alignment = {
  n_matched : int;
  base_match : int array;  (** baseline idx -> match id, or -1 (in a region) *)
  accel_match : int array;  (** accelerated idx -> match id, or -1 *)
  base_region : int array;  (** baseline idx -> region ordinal, or -1 *)
  regions : region array;
  misaligned : (int * int) option;
      (** first irreconcilable position; an index may equal the trace
          length when that side ran out *)
}

val align :
  Tca_uarch.Isa.instr array -> Tca_uarch.Isa.instr array -> alignment

(** {2 Verdicts} *)

type witness = {
  location : Effects.loc option;
      (** [None] for an instruction-stream misalignment *)
  base_index : int;  (** instruction index, [-1] for final-state-only *)
  accel_index : int;
  base_term : string;
  accel_term : string;
  base_contributors : int list;  (** contributing baseline instr indices *)
  accel_contributors : int list;
  reason : string;
}

type verdict = Equivalent | Divergent of witness

type audit = {
  severity : Finding.severity;
  rule : string;
  count : int;
  detail : string;
}
(** Allowed-but-noteworthy consequences of region replacement,
    aggregated per rule. *)

type report = {
  verdict : verdict;
  strategy : strategy;
  n_base : int;
  n_accel : int;
  invocations : int;
  matched : int;  (** matched common instructions (align strategy) *)
  regions : int;
  sigma_reg : int;  (** distinct region-output channels bound through
                        accelerator destination registers *)
  sigma_mem : int;  (** ... through declared write lines *)
  audits : audit list;
}

val equivalent : report -> bool

val check :
  ?line_bytes:int ->
  ?strategy:[ `Auto | `Align | `Dataflow ] ->
  baseline:Tca_uarch.Isa.instr array ->
  accelerated:Tca_uarch.Isa.instr array ->
  unit ->
  report
(** [line_bytes] (default 64) must match the footprint granularity the
    traces were generated for; pass the configured L1 line size. Total
    work is linear in the trace sizes for align (memoised pair walk) and
    near-linear for dataflow. *)

val report_to_json : report -> Tca_util.Json.t
val witness_to_json : witness -> Tca_util.Json.t
val pp_report : Format.formatter -> report -> unit
