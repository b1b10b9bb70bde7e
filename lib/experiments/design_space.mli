(** Extension X3 (paper Section VIII): cost/performance Pareto analysis,
    energy verdicts, and parameter sensitivity for representative TCA
    scenarios — the "more complete evaluation" the paper's future-work
    section calls for. *)

type scenario_row = {
  name : string;
  core : Tca_model.Params.core;
  scenario : Tca_model.Params.scenario;
}

val scenarios : scenario_row list
(** Heap manager (fine-grained, HP), GreenDroid-like function (medium,
    LP), and DGEMM 4x4 tile (coarse, HP). *)

val pareto : scenario_row -> Tca_model.Hw_cost.design list * Tca_model.Hw_cost.design list
(** (front, dominated). *)

val energy : scenario_row -> Tca_model.Energy.verdict list

val artifact : unit -> Tca_engine.Artifact.t
(** Pareto fronts, energy verdicts, and the sensitivity tornado for each
    scenario. *)
