(** First-order energy model (paper Section VII: "Program slowdown
    requires the core to run longer, increasing the amount of static
    energy consumed by the core, eroding the energy gains created by the
    accelerator").

    Normalised units: core dynamic energy per instruction = 1. The
    accelerator executes an instruction's worth of work for 0.2 units
    (that efficiency is why energy-motivated TCAs exist), and the
    package burns [static_power] units per cycle whether or not work
    retires. *)

type t = {
  static_power : float;  (** energy units per cycle, entire package *)
}

val make : ?static_power:float -> unit -> t
(** Static power defaults to 0.5/cycle and must be non-negative; the
    accelerator runs at 0.2x core energy. *)

type verdict = {
  mode : Mode.t;
  speedup : float;
  energy : float;  (** per baseline-interval, normalised *)
  relative_energy : float;  (** vs. the software baseline; < 1 saves *)
  edp : float;  (** energy-delay product, normalised to baseline = 1 *)
}

val baseline_energy : t -> Params.core -> Params.scenario -> float
(** Energy of one un-accelerated interval: dynamic (1 per instruction) +
    static (per baseline cycle). *)

val evaluate : t -> Params.core -> Params.scenario -> verdict list
(** All four modes. A mode that slows the program can have
    [relative_energy > 1] even though the accelerator itself is cheaper
    per instruction — the paper's warning, made quantitative. *)

val energy_break_even_speedup : t -> Params.core -> Params.scenario -> float
(** The program speedup below which the TCA stops saving energy, given
    the scenario's dynamic-energy savings. Modes whose predicted speedup
    falls below this line erode the accelerator's gains. *)
