(** The central job registry: every experiment the system can run,
    under one namespace.

    The CLI's [tca run]/[tca list], the bench harness and the tests all
    resolve jobs through a registry instead of hand-written dispatch —
    adding an experiment means registering one {!Job.t}, and every
    surface (CLI, cache, scheduler, bench, CI) picks it up. *)

type t

val create : unit -> t

val register : t -> Job.t -> (unit, Tca_util.Diag.t) result
(** [Error (Invalid _)] on a duplicate name — two jobs with the same
    name would alias each other's cache entries. *)

val find : t -> string -> Job.t option

val resolve : t -> string list -> (Job.t list, Tca_util.Diag.t) result
(** Resolve names in order; [Error (Invalid _)] on the first unknown
    name, mentioning the available ones. *)

val all : t -> Job.t list
(** Sorted by name — the canonical suite order. *)

val names : t -> string list
val length : t -> int
