(** Application-code μop generator shared by the workload builders.

    Emits a deterministic instruction mix (per-seed) with: recurring
    static branch sites of per-site bias (so predictors behave as on real
    loops), a bounded register dependence window controlling extractable
    ILP, and loads/stores over a configurable working set controlling L1
    behaviour. *)

type config = {
  branch_every : int;  (** one branch per this many μops; 0 = never *)
  hard_branch_fraction : float;
      (** fraction of branch sites with 50/50 outcomes *)
  branch_bias : float;
      (** taken probability magnitude of the remaining (easy) sites: a
          site is taken with probability [branch_bias] or
          [1 - branch_bias] *)
  load_every : int;  (** 0 = never *)
  store_every : int;
  mult_every : int;
  fp_every : int;
  working_set_bytes : int;
  dep_window : int;  (** registers cycled through as destinations *)
  n_branch_sites : int;
}

val default_config : config
(** Roughly SPECint-flavoured: branch every 6, 5% hard sites, 0.97 bias,
    load every 4, store every 9, mult every 17, fp every 13, 16 kB
    working set, 12-register window, 64 branch sites. *)

val model_friendly_config : config
(** The mix the validation microbenchmarks use: highly predictable
    branches (no hard sites, 0.998 bias, one branch per 8 μops) and a
    wider dependence window, so the core sits in the backend-limited
    steady state the analytical model (and the interval analysis it
    builds on) assumes. *)

type t

val create :
  ?config:config ->
  ?site_base:int ->
  ?reg_base:int ->
  rng:Tca_util.Prng.t ->
  unit ->
  t
(** The generator owns the given rng substream. [site_base] places the
    generator's static branch sites (default 0x8000); two generators
    contributing to one trace must use disjoint bases or their
    conflicting biases alias in the predictor tables. [reg_base]
    (default 0) offsets the register dependence window to
    [reg_base, reg_base + dep_window): two generators contributing to
    one trace must also keep these disjoint, or their register state
    aliases — which changes program semantics, not just timing (see
    {!Tca_analysis.Equiv}). Every generator's working set sits at the
    same static-data base, below any heap arena. Neither base consumes
    PRNG draws, so the emitted instruction stream is isomorphic across
    bases for a fixed seed. *)

val emit_block : t -> Tca_uarch.Trace.Builder.t -> int -> unit
(** Append [n] application μops. *)

val call_sites :
  ?config:config ->
  app_rng:Tca_util.Prng.t ->
  gap_rng:Tca_util.Prng.t ->
  mean_gap:int ->
  'a array ->
  (Tca_uarch.Trace.Builder.t -> 'a -> unit) ->
  Tca_uarch.Trace.t
(** [call_sites ?config ~app_rng ~gap_rng ~mean_gap calls emit] builds
    one variant of a call-site workload: before each call, an
    application block from a generator over [config] and [app_rng] (see
    {!create}), its length drawn from [gap_rng] uniformly in
    [\[mean_gap - h, mean_gap + h\]], [h = max 1 (mean_gap / 2)] (none
    when [mean_gap <= 0]); then [emit b call]. Fresh rngs of the same
    seeds give two variants the same application instructions. *)
