(** Hardware-cost model for the four coupling modes (paper Section VIII:
    "a pareto-optimal curve of design implementations could show the
    trade-off between hardware costs, performance").

    Costs are normalised, dimensionless proxies (area/power units
    relative to the bare accelerator datapath = 1.0): speculation support
    needs checkpoint/rollback state, trailing support needs
    register/memory dependency-resolution logic (LSQ and rename
    integration). The defaults are deliberately round engineering
    estimates — the point of the Pareto analysis is ordering and
    dominance, which is robust to the exact constants. *)

type t = {
  datapath : float;  (** the accelerator itself; common to all modes *)
  rollback : float;  (** checkpoint + squash logic for L modes *)
  dependency : float;  (** LSQ/rename integration for T modes *)
}

val default : t
(** datapath 1.0, rollback 0.35, dependency 0.5. *)

val mode_cost : t -> Mode.t -> float
(** Total cost of implementing the TCA in the given mode. *)

type design = {
  mode : Mode.t;
  cost : float;
  speedup : float;
}

val designs : Params.core -> Params.scenario -> design list
(** The four design points for a scenario at {!default} costs, in
    [Mode.all] order. *)

val pareto_front : design list -> design list
(** Non-dominated designs (no other design is at least as fast and
    strictly cheaper, or at least as cheap and strictly faster), sorted
    by increasing cost. *)

val dominated : design list -> design list
(** The complement of {!pareto_front}: designs an architect should never
    build for this scenario. *)

val cheapest_at_least : design list -> speedup:float -> design option
(** The cheapest design meeting a speedup target, if any. *)
