(** Typed lint findings, the analysis analogue of {!Tca_util.Diag}.

    Every rule the lint pass ({!Lint}) can fire is one constructor with a
    payload precise enough for a tool to act on (instruction index,
    register number, cache-line address). Severities gate CI: the shipped
    workload generators must be clean at {!Warning} and above, while
    {!Info} findings are advisory (register-pressure and dead-memory
    hints that are statistically unavoidable in randomized traces). *)

type severity = Info | Warning | Error

val severity_order : severity -> int
(** [Info] 0, [Warning] 1, [Error] 2 — for threshold comparisons. *)

val severity_name : severity -> string

type t =
  | Use_before_def of { index : int; reg : int }
      (** Instruction [index] reads architectural register [reg] before
          any earlier instruction wrote it. *)
  | Dead_write of { index : int; reg : int; overwritten_at : int }
      (** The value written to [reg] at [index] is overwritten at
          [overwritten_at] without an intervening read. *)
  | Silent_store of { index : int; addr : int; overwritten_at : int }
      (** The store at [index] is overwritten by a later store to the
          same address ([overwritten_at]) with no intervening load;
          live-out stores (never overwritten) are not flagged. *)
  | Accel_dup_read of { index : int; line : int }
      (** The accelerator invocation at [index] lists cache line [line]
          more than once in its read set. *)
  | Accel_dup_write of { index : int; line : int }
      (** Duplicate line in an invocation's write set. *)
  | Accel_rw_overlap of { index : int; line : int }
      (** A line appears in both the read and the write set of the same
          invocation — a read-modify-write footprint. Informational:
          legitimate for in-place accelerators (e.g. the MMA's C tile). *)
  | Accel_app_overlap of { index : int; line : int; app_index : int }
      (** An accelerator read/write line is also touched by a plain
          load/store elsewhere in the trace (instruction [app_index]).
          The simulator enforces no ordering between accelerator memory
          and in-flight software accesses, so aliasing footprints make
          the timing model unsound. *)
  | Branch_site_conflict of { pc : int; srcs : int list }
      (** The static branch site [pc] executes with more than one
          distinct source register ([srcs], sorted). A fixed PC denotes
          fixed instruction bytes, so a genuine site always reads the
          same operand — inconsistent operands mean two co-resident
          generators are aliasing one [site_base] range (and corrupting
          each other's predictor state). *)
  | Noop_accel of { index : int }
      (** An [Accel] with empty read and write sets and zero compute
          latency: a no-op invocation that silently skews the derived
          [a] and [A] model inputs (also rejected by [Trace.validate]). *)
  | No_accel
      (** The trace contains no accelerator invocation, so the TCA model
          inputs [a], [v], [A] cannot be derived from it. *)
  | Empty_trace  (** Zero-length trace. *)
  | Config_granularity of {
      mean_instrs_per_invocation : float;
      break_even : float;
    }
      (** The trace's mean invocation granularity (instructions per
          invocation) sits below a modeled configuration break-even
          threshold (see {!Tca_model.Equations.config_break_even}):
          invocations arrive too often for the configuration mechanism
          to pay for itself. Only fired when the lint pass is given a
          threshold — configuration-free analyses never see it. *)

val severity : t -> severity
val rule_name : t -> string
(** Stable kebab-case rule identifier, e.g. ["use-before-def"]. *)

val to_string : t -> string
(** ["severity rule: message"], stable for test matching. *)

val to_json : t -> Tca_util.Json.t
(** [{"rule", "severity", "index" (or null), "message"}]. *)
