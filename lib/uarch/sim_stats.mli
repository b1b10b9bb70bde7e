(** Aggregate results of one simulation run. *)

type stall_breakdown = {
  rob_full : int;
  iq_full : int;
  lsq_full : int;
  serialize : int;  (** dispatch barrier behind an in-flight NT TCA *)
  redirect : int;  (** front end waiting on a branch redirect *)
  drained : int;  (** nothing left to dispatch *)
}

type unit_stats = {
  unit_id : int;  (** matches {!Tca_unit.t.id} / [Isa.accel.unit_id] *)
  invocations : int;
  busy_cycles : int;  (** cycles this unit held an invocation in flight *)
  wait_for_head_cycles : int;
      (** cycles a ready NL invocation of this unit waited for the ROB
          head (window drain attributable to the unit) *)
  serialize_stall_cycles : int;
      (** dispatch-stall cycles behind this unit's in-flight NT
          invocations *)
}
(** Per-unit slice of the accelerator counters, reported only for
    multi-unit configurations (see {!t.per_unit}). *)

type t = {
  cycles : int;
  committed : int;
  ipc : float;
  branches : int;
  mispredicts : int;
  l1 : Mem_hier.level_stats;
  l2 : Mem_hier.level_stats option;
  accel_invocations : int;
  accel_busy_cycles : int;
      (** cycles with at least one TCA instruction executing *)
  accel_wait_for_head_cycles : int;
      (** cycles a ready NL-mode TCA spent waiting to reach the ROB head *)
  avg_rob_occupancy : float;  (** mean ROB entries over all cycles *)
  avg_rob_at_accel_dispatch : float;
      (** mean ROB entries at the moment a TCA dispatches — the window
          the NL modes must drain *)
  dtlb : Mem_hier.level_stats option;
      (** data-TLB hits/misses when a DTLB is configured *)
  stalls : stall_breakdown;
  config_stall_cycles : int;
      (** dispatch-stall cycles spent on synchronous configuration
          writes ([Tca_unit.Sync], and the one-time programming of
          [Preprogrammed] units) *)
  config_queue_stall_cycles : int;
      (** dispatch-stall cycles waiting for a full descriptor queue
          ([Tca_unit.Queued] with [config_queue_depth] outstanding) *)
  per_unit : unit_stats list;
      (** per-unit invocation/drain/stall breakdown, ordered by unit id.
          Empty for runs on a single-unit configuration — the aggregate
          accel counters already are that unit's breakdown — so
          single-unit {!to_json} bytes are unchanged from the
          pre-[Tca_unit] format the goldens pin. *)
}

val make :
  cycles:int -> committed:int -> branches:int -> mispredicts:int ->
  hier:Mem_hier.t -> dtlb:Tlb.t option -> occupancy_sum:int ->
  occupancy_at_accel_sum:int -> stalls:stall_breakdown ->
  config_stall_cycles:int -> config_queue_stall_cycles:int ->
  unit_stats list -> t
(** A run's stats from its raw counters and per-unit slices (ordered by
    unit id). [ipc] and the two ROB averages are derived here:
    [occupancy_sum] is the ROB occupancy summed over all cycles,
    [occupancy_at_accel_sum] over accelerator dispatches. The accel
    aggregates are sums over the units, and [per_unit] keeps the slices
    only when there are two or more. *)

val mispredict_rate : t -> float

val level_miss_rate : Mem_hier.level_stats -> float
(** misses / (hits + misses), 0 when the level saw no accesses. *)

val l1_miss_rate : t -> float

val l2_miss_rate : t -> float option
(** [None] when no L2 is configured. *)

val dtlb_miss_rate : t -> float option
(** [None] when no DTLB is configured. *)

val total_stalls : stall_breakdown -> int
(** Sum over all six stall reasons. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Tca_util.Json.t
(** Complete machine-readable form, including the optional L2/DTLB
    levels (as [null] when absent) and derived rates. A trailing
    [per_unit] list is present exactly when {!t.per_unit} is non-empty,
    and a [config] object exactly when a config-stall counter is
    non-zero — so configuration-free runs keep the exact bytes the
    golden pins were generated from. *)

val of_json : Tca_util.Json.t -> (t, Tca_util.Diag.t) result
(** Inverse of {!to_json} (derived rates are recomputed, not read);
    tolerant of absent [per_unit] and [config] keys, so pre-[Tca_unit]
    and pre-t_config documents parse. [to_json (of_json j)] reproduces
    [j]'s bytes for any document {!to_json} produced. *)

val speedup : baseline:t -> accelerated:t -> (float, Tca_util.Diag.t) result
(** Ratio of baseline to accelerated cycle counts;
    [Error (Invalid _)] when the accelerated run has zero cycles. *)

val speedup_exn : baseline:t -> accelerated:t -> float
(** @raise Tca_util.Diag.Error on zero accelerated cycles. *)
