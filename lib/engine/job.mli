(** A schedulable, memoizable unit of experiment work.

    A job is a stable name plus a params fingerprint plus a pure body
    producing an {!Artifact.t}. Purity is the contract that makes the
    whole engine work: for a fixed (name, params, quick) triple the body
    must return a structurally identical artifact on every run, on any
    domain — all workload generators are seeded, so every driver in
    this repository satisfies it. The scheduler exploits it for
    parallelism, the cache for memoization. *)

type ctx = {
  telemetry : Tca_telemetry.Sink.t option;
      (** Per-job sink, single-domain: the body may use it directly on
          its own domain, and must spread work over [par] with
          {!Tca_telemetry.Timing.fan_out}, which forks and joins it. *)
  par : Tca_util.Parmap.t;
      (** Intra-job parallelism capability; [Parmap.serial] when the
          engine runs with [--jobs 1]. *)
  quick : bool;  (** Reduced sweep sizes (the drivers' [--quick]). *)
  checkpoint : unit -> unit;
      (** Cooperative cancellation point, the engine-level analogue of
          the simulator's cycle watchdog. Long-running bodies should
          call it at natural boundaries (sweep iterations, per-trace
          steps); when the scheduler runs the job under a deadline
          policy it raises [Diag.Error (Deadline _)] once the budget is
          exhausted, otherwise it is a no-op ([ignore]). The scheduler
          also threads it through [par], so any body that spreads its
          work over chunks gets deadline checks at every chunk boundary
          for free. *)
}

type t = {
  name : string;  (** stable identifier, e.g. ["fig5"] *)
  title : string;  (** one-line description for [tca list] *)
  params : (string * string) list;
      (** the inputs that determine the output, in fingerprint form;
          part of the cache key *)
  body : ctx -> Artifact.t;
}

val make :
  name:string -> title:string -> ?params:(string * string) list ->
  (ctx -> Artifact.t) -> t

val fingerprint : t -> quick:bool -> string
(** Canonical input fingerprint: name, sorted params and the quick flag.
    The cache prepends its model-version salt (see {!Cache.key}). *)

val fingerprint_digest : t -> quick:bool -> string
(** Hex digest of {!fingerprint} — the short stable form used in
    failure reports and [Diag.Task_failure]. *)
