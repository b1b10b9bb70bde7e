(** Ablation X1: LogCA vs. this paper's model across granularity.

    LogCA models a loosely-coupled accelerator (CPU idles during offload,
    no pipeline interactions); the TCA model adds the four coupling
    modes. At coarse granularity both converge toward the accelerator's
    asymptotic speedup; at fine granularity LogCA sees only its fixed
    overhead while the TCA model resolves the drain/fill penalties that
    differ by an order of magnitude between modes. *)

type row = {
  g : float;
  logca : float;
  tca : (Tca_model.Mode.t * float) list;
}

val run : ?points:int -> unit -> row list

val artifact : row list -> Tca_engine.Artifact.t
