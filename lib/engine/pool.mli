(** A fixed pool of worker domains that runs {!map} batches.

    Determinism by construction: {!map} is order-preserving — result [i]
    is always [f xs.(i)] regardless of which domain ran it or in what
    order — so a run with [workers = 0] (fully serial, no domains) and a
    run with any number of workers produce structurally identical
    results for pure [f].

    Each {!map} call opens a {e batch} whose tasks are claimed by index.
    A batch opened by a running task is nested under that task's batch.
    The caller of {!map} participates, but only in its own work: while
    waiting for its batch it runs tasks of that batch and of batches
    nested under it, never a sibling's. A job's fan-out therefore never
    runs the jobs queued beside it, so the job's time is its own. Idle
    workers take any open batch, the newest first. Nested maps stay
    deadlock-free even when every worker is busy, since a caller can
    always run its own unclaimed tasks, and [workers = 0] is the same
    code path rather than a special case. *)

type t

val create : workers:int -> t
(** Spawn [workers] domains ([0] is valid: no domains, all work runs on
    the calling domain). Negative values are clamped to [0]. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map. [f] must be pure per element and must
    not touch another element's mutable state. If one or more
    applications raise, all settle first, then the exception of the
    {e lowest index} is re-raised (with its backtrace) — the same
    exception a serial left-to-right run would surface. *)

val parmap : t -> Tca_util.Parmap.t
(** This pool as a {!Tca_util.Parmap.t} capability, for handing to code
    that should not depend on [tca_engine]. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent. No {!map} may be in
    flight or issued afterwards. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} (also on exception). *)
