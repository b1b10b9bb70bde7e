(** μop cost model for software hash-map probes and the hash-map TCA.

    The software sequence is the classic linear-probe loop: hash
    computation, then per inspected bucket a key load, a compare and a
    conditional branch, plus index arithmetic. The accelerated version is
    a single TCA instruction whose memory requests are exactly the cache
    lines of the buckets the real table probed, with a short compute
    latency (the hash unit plus comparators). *)

val software_uops : probes:int -> int
(** Total software μops for an operation with the given probe count. *)

val accel_compute_latency : int
(** 2 cycles: hash plus parallel compare. *)

val result_reg : int
(** Register receiving the looked-up value (software and TCA agree). *)

val emit_find :
  Tca_uarch.Trace.Builder.t ->
  bucket_addrs:int list ->
  unit
(** Append the software probe sequence touching exactly the given bucket
    addresses (from {!Table.probe_result}). *)

val emit_find_accel :
  Tca_uarch.Trace.Builder.t ->
  bucket_addrs:int list ->
  unit
(** Append the single TCA instruction reading the probed buckets'
    lines. *)
