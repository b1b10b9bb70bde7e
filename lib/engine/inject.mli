(** Engine-level fault injection: wrap job bodies so they misbehave in
    controlled, seeded ways.

    This is the engine-layer extension of the value-level
    fault-injection harness: where [Tca_util.Faultgen] feeds hostile
    {e values} into constructors, [Inject] turns whole {e jobs} hostile
    — raising, hanging until the deadline trips, or returning a
    structurally valid but wrong artifact. The fuzz harness
    ([test/fuzz_engine.ml]) and the CLI's [--inject JOB=FAULT] flag both
    build plans with this module, so CI can drive a real [tca run]
    through its failure paths. *)

type kind = Tca_util.Faultgen.engine_fault =
  | Raise  (** body raises {!Injected_raise} *)
  | Hang
      (** body spins calling [ctx.checkpoint] until the deadline trips
          (bounded by a 30s escape hatch so an un-deadlined run still
          terminates, with a [Raise]-style failure) *)
  | Corrupt_artifact
      (** body runs honestly, then returns a deterministically mangled
          but structurally valid artifact *)

type plan = (string * kind) list
(** Job name -> fault to inject. Jobs not named run untouched. *)

exception Injected_raise of string
(** The exception used by [Raise] (and the hang escape hatch). *)

val parse_spec : string -> (string * kind, Tca_util.Diag.t) result
(** ["JOB=FAULT"], the CLI [--inject] argument; [FAULT] is ["raise"],
    ["hang"] or ["corrupt"]. *)

val wrap : plan -> Job.t list -> Job.t list
(** Wrap each planned job's body; names, titles and params (hence
    fingerprints and cache keys) are unchanged. *)
