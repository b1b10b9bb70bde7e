(** Extension X2 (paper Section VIII): partial TCA speculation.

    A design that speculates only past high-confidence branches lands
    between the L and NL modes. Sweeping the speculation-coverage
    probability shows how much confidence hardware is needed before the
    cheap NL design stops leaving performance on the table — evaluated on
    the heap-manager scenario where the L/NL gap is largest. *)

type row = {
  p_speculate : float;
  speedup_t : float;  (** trailing concurrency allowed *)
  speedup_nt : float;
}

val run : ?points:int -> unit -> row list
(** Heap scenario: v = 1/150, a = 0.35, 1-cycle TCA, HP core. *)

type sim_row = {
  p : float;
  sim_speedup : float;  (** simulator, trailing allowed *)
  model_speedup : float;  (** {!Tca_model.Partial} blend *)
}

val validate :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> unit -> sim_row list
(** Run the heap workload in the simulator with per-invocation partial
    speculation at p in {0, 1/4, 1/2, 3/4, 1} and compare against the
    model's L/NL blend — closing the loop on the paper's Section VIII
    proposal. [?par] spreads the five speculative runs over a pool with
    identical rows and merged trace. *)

val confidence_for_95pct : unit -> float option
(** Speculation coverage needed to reach 95% of the full L_T speedup. *)

val artifact :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  ?quick:bool -> row list -> Tca_engine.Artifact.t
(** The model blend table, the 95%-confidence note, and the simulator
    cross-check (which this call runs). *)
