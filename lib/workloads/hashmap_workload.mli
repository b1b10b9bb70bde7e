(** Hash-map lookup microbenchmark: application code interleaved with
    lookups against a real open-addressing table (pre-populated to load
    factor 0.6). The baseline expands each lookup into the
    software probe loop touching the exact buckets the table probed; the
    accelerated variant issues one TCA instruction reading the same
    cache lines. Probe counts — and therefore both the software cost and
    the TCA's memory traffic — come from the genuine table state, not a
    constant. *)

type config = {
  n_lookups : int;
  app_instrs_per_lookup : int;
  capacity_pow2 : int;  (** table size: 2^k buckets *)
  app : Codegen.config;
  seed : int;
}

val config :
  ?capacity_pow2:int -> ?app:Codegen.config -> ?seed:int ->
  n_lookups:int -> app_instrs_per_lookup:int -> unit -> config
(** Defaults: 2^14 buckets. The table is filled to load factor 0.6
    and 90% of lookups find their key. *)

val generate : config -> Meta.pair * float
(** The pair plus the measured mean probes per lookup (granularity
    calibration: mean software μops = [Tca_hashmap.Cost_model.software_uops]
    at that probe count). [meta.avg_reads_per_invocation] reflects the
    real per-lookup line traffic. *)
