(** Structured diagnostics: the typed error layer of the library.

    Every fallible entry point of the model and the simulator returns
    [('a, Diag.t) result] so that a design-space sweep over thousands of
    parameter points can skip-and-record a bad point instead of aborting,
    and so that callers (the CLI, the fuzz harness) can map a failure to a
    precise, machine-readable diagnostic and a stable exit code.

    Convention: a fallible function has one form, returning a [result].
    A caller whose inputs are correct by construction unwraps it with
    {!ok_exn}, which raises {!Error}. An [Ok] result never carries a
    non-finite float. *)

type t =
  | Domain of { field : string; lo : float; hi : float; actual : float }
      (** [actual] falls outside the valid interval [\[lo, hi\]] (the
          closure of the valid set; strict bounds are reported with the
          same interval). *)
  | Non_finite of { field : string; value : float }
      (** A NaN or infinity reached a smart constructor, or a computation
          produced one where a finite number was required. *)
  | Empty_input of { field : string }
      (** An aggregate (mean, peak, summary, ...) over nothing. *)
  | Ragged_input of { field : string; expected : int; actual : int }
      (** Mismatched lengths: ragged matrix rows, label/row count
          mismatch, paired arrays of different sizes. *)
  | Watchdog of { cycles : int; committed : int; total : int }
      (** The simulator's cycle watchdog expired after [cycles] cycles
          with [committed] of [total] trace instructions committed. *)
  | Parse of { field : string; input : string; message : string }
      (** Unparseable textual input (CLI arguments, trace files). *)
  | Invalid of { field : string; message : string }
      (** Structural invariant violation not covered by the variants
          above (e.g. a singular value, an inconsistent configuration). *)
  | Task_failure of {
      job : string;  (** scheduler job name *)
      fingerprint : string;  (** digest of the job's params fingerprint *)
      exn : string;  (** [Printexc.to_string] of the escaped exception *)
      backtrace : string;
          (** raw backtrace at the supervisor's catch point; empty when
              backtrace recording is off. Excluded from {!pp} so the
              rendered diagnostic is identical whatever the scheduling
              mode — surface it separately when debugging. *)
    }
      (** A supervised engine task raised instead of returning an
          artifact. Produced by the scheduler's per-task supervisor, never
          by the model/simulator layers. *)
  | Deadline of { job : string; seconds : float }
      (** A supervised engine task exceeded its per-job wall-clock budget
          of [seconds] (the configured budget, not the measured elapsed
          time, so reports stay deterministic). The engine-level analogue
          of the simulator's {!Watchdog}. *)

exception Error of t
(** Raised by {!ok_exn}, and by the few functions whose failure is itself
    their result ([Pipeline.run_exn], [Scheduler.artifact_exn]). *)

val to_string : t -> string

val exit_code : t -> int
(** Stable process exit code per diagnostic class (documented in the
    README): Parse 2, Domain 3, Non_finite 4, Empty_input 5,
    Ragged_input 6, Invalid 7, Watchdog 8, Task_failure 9, Deadline 10.
    0 and 1 are never returned (success and generic failure). *)

val ok_exn : ('a, t) result -> 'a
(** [Ok x -> x]; [Error d -> raise (Error d)]. *)

val error_to_msg : ('a, t) result -> ('a, [ `Msg of string ]) result
(** Adapter for [Cmdliner.Arg.conv]-style consumers. *)

(** {2 Checks}

    Each check has two forms. The [_error] form returns [None] when the
    value passes, which allocates nothing, or [Some] diagnostic: a
    per-point path chains these. The plain form is [checked] over it and
    returns its argument on success, so it can be chained with [let*].
    Float checks reject NaN and infinities first. *)

val finite_error : field:string -> float -> t option
val range_error : field:string -> lo:float -> hi:float -> float -> t option
val positive_error : field:string -> float -> t option
val non_negative_error : field:string -> float -> t option
val at_least_error : field:string -> min:int -> int -> t option

val checked : 'a -> t option -> ('a, t) result
(** [checked x e] is [Ok x] when [e] is [None], else [Error] of [e]'s
    diagnostic. *)

val finite : field:string -> float -> (float, t) result
val in_range : field:string -> lo:float -> hi:float -> float -> (float, t) result
val positive : field:string -> float -> (float, t) result
val non_negative : field:string -> float -> (float, t) result
val positive_int : field:string -> int -> (int, t) result
val at_least : field:string -> min:int -> int -> (int, t) result
val non_empty : field:string -> 'a array -> ('a array, t) result

val same_length :
  field:string -> 'a array -> 'b array -> (unit, t) result
(** [Ragged_input] when the two arrays differ in length. *)

module Syntax : sig
  val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result
  val ( let+ ) : ('a, t) result -> ('a -> 'b) -> ('b, t) result
end
