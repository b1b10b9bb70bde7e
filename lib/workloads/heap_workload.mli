(** The heap-manager microbenchmark (paper Sections IV and V-B).

    Application code interleaved with malloc/free calls over the four
    TCMalloc size classes, driven by a real {!Tca_heap.Tcmalloc} instance
    so every call operates on genuine allocator state. Free lists are
    pre-warmed so malloc always hits a class list — the accelerator's
    common case, as the paper assumes. The baseline expands each call to
    the calibrated 69/37-μop software sequence; the accelerated variant
    emits one single-cycle TCA instruction instead. Trailing application
    code consumes the malloc'd pointer, preserving the
    pointer-dependency the paper discusses. *)

type config = {
  n_calls : int;  (** total malloc + free call sites *)
  app_instrs_per_call : int;  (** mean application μops between calls *)
  app : Codegen.config;
  seed : int;
}

val config :
  ?app:Codegen.config -> ?seed:int ->
  n_calls:int -> app_instrs_per_call:int -> unit -> config
(** Validates positive counts. [seed] defaults to 1. *)

val expected_call_fraction : config -> float
(** Rough a-priori acceleratable fraction, for sizing sweeps:
    [avg_call_uops / (avg_call_uops + app_instrs_per_call)]. *)

val generate : config -> Meta.pair
(** The pair plus meta; [meta.compute_latency] is the 1-cycle heap TCA. *)
