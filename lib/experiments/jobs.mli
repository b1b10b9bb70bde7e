(** Every experiment in the reproduction, registered as engine jobs.

    The figure/table drivers (table1, fig2..fig8), the X1-X9 extension
    studies and one [simulate.<workload>] job per workload family all
    live in one namespace; [tca run], [tca list], the bench harness and
    the tests resolve them through {!registry} instead of bespoke
    dispatch. *)

val registry : unit -> Tca_engine.Registry.t
(** A fresh registry holding every job: figures and tables, extensions,
    then the [simulate.*] family. *)
