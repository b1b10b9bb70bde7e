(** A first-class tightly-coupled accelerator unit and the per-unit
    accelerator policy both pipelines share.

    The paper models a single accelerator instruction class whose
    coupling semantics live on the core configuration
    ({!Config.coupling}, {!Config.tca_occupancy}); those stay core-wide
    for every unit. Generalizing to N heterogeneous units, a unit adds
    only what exists per unit: its configuration cost, the simulator
    counterpart of the model's (T1)-(T3) terms.

    An [Isa.accel] instruction names its unit by {!Isa.accel.unit_id};
    {!Config.t} holds the unit table ([tca_units], indexed by id). The
    default single-unit table — one {!default} unit 0 with no
    configuration cost — is the classic single-TCA machine. *)

type config_mode = Sync | Queued | Preprogrammed
(** How the unit is configured before an invocation may start — the
    simulator counterpart of the model's (T1)-(T3) terms
    ([Equations.config_overhead]):

    - [Sync]: the dispatching core issues [config_latency] cycles of
      synchronous CSR writes on the critical path of every invocation
      (dispatch stalls; counted as [Sim_stats.config_stall_cycles]).
    - [Queued]: a serial per-unit descriptor engine takes
      [config_latency] cycles per descriptor, overlapped with execution;
      dispatch only stalls when [config_queue_depth] descriptors are
      outstanding (counted as [Sim_stats.config_queue_stall_cycles]).
    - [Preprogrammed]: the unit is programmed once — the first
      invocation pays [config_latency] synchronously, the rest are
      free.

    With [config_latency = 0] (the default) all three are inert. *)

type t = {
  id : int;  (** matches [Isa.accel.unit_id]; position in [Config.tca_units] *)
  config_mode : config_mode;  (** [Sync] default (inert at latency 0) *)
  config_latency : int;
      (** [t_config] in cycles (>= 0); 0 disables configuration cost *)
  config_queue_depth : int;
      (** outstanding-descriptor bound of the [Queued] engine (>= 1) *)
}

val make :
  ?config_mode:config_mode ->
  ?config_latency:int ->
  ?config_queue_depth:int ->
  int ->
  t
(** [make id]; raises [Invalid_argument] on a negative id or config
    latency, or a non-positive config queue depth. [config_mode]
    defaults to [Sync], [config_latency] to 0 (no configuration cost),
    [config_queue_depth] to 4. *)

val default : int -> t
(** [default id] = [make id]: no configuration cost. *)

val validate : t -> (t, Tca_util.Diag.t) result

val config_mode_name : config_mode -> string
(** ["sync"], ["queued"] or ["preprog"]. *)

val pp : Format.formatter -> t -> unit

(** The per-unit accelerator state of one simulation run: the
    configuration mechanisms (T1)-(T3), the [Exclusive] occupancy
    free-at cycle, and the per-unit counters. The one implementation of
    the accelerator policy; both pipelines drive it at dispatch and
    issue. Every call but {!unit_stats} is allocation-free. *)
module State : sig
  type unit_table := t array

  type t

  val create : exclusive:bool -> unit_table -> t
  (** Fresh state for a (validated) unit table. [exclusive] is the
      core's [Config.tca_occupancy = Exclusive]: a unit then runs one
      invocation at a time. *)

  type gate =
    | Go  (** the invocation may dispatch this cycle *)
    | Config_write
        (** synchronous CSR writes in flight ([Sync], or the one-time
            programming of [Preprogrammed]) *)
    | Config_queue  (** the [Queued] unit's descriptor queue is full *)

  val gate : t -> int -> instr:int -> cycle:int -> gate
  (** [gate st u ~instr ~cycle]: may the invocation [instr] (any identity
      of the dynamic instruction, e.g. its trace index) of unit [u]
      dispatch at [cycle]? The first [Config_write] for an [instr]
      starts its [config_latency] cycles of CSR writes; the gate opens
      once they complete. [Queued] is full when the engine's backlog
      [R = free_at - cycle] exceeds [(depth - 1) * config_latency]: with
      completions spaced [config_latency] apart that is exactly [depth]
      outstanding descriptors. A unit with [config_latency = 0] always
      answers [Go]. *)

  val gate_open_at : t -> int -> int
  (** [gate_open_at st u]: once {!gate} has refused an invocation of
      [u], the first cycle at which it answers [Go] for that
      invocation, provided nothing dispatches in between — the end of
      the CSR writes in flight, or the cycle the [Queued] backlog falls
      to [(depth - 1) * config_latency]. Meaningless after a [Go]. *)

  val dispatch : t -> int -> cycle:int -> int
  (** [dispatch st u ~cycle] records an invocation of [u] dispatched at
      [cycle] (after [gate] said [Go]) and returns the cycle its
      configuration is ready: for a [Queued] unit, the completion of the
      descriptor it enqueues on the serial engine; 0 otherwise. It also
      marks a [Preprogrammed] unit programmed. *)

  val start : t -> int -> cycle:int -> ready:int -> int
  (** [start st u ~cycle ~ready]: the earliest cycle an invocation of [u]
      issuing at [cycle] may begin executing — not before its
      configuration is [ready] (the value {!dispatch} returned) nor, when
      [exclusive], before the unit's previous invocation completes. *)

  val finish : t -> int -> issued:int -> complete:int -> unit
  (** [finish st u ~issued ~complete] records that the invocation of [u]
      issued at [issued] completes at [complete]: the unit is busy until
      then. *)

  val wait_for_head : t -> int -> unit
  (** A ready non-leading invocation of the unit waited one cycle for
      the ROB head. *)

  val add_head_waits : t -> int -> int -> unit
  (** [add_head_waits st u k] = [k] calls of [wait_for_head st u]. *)

  val serialize_stall : t -> unit
  (** Dispatch stalled one cycle behind the serializing (non-trailing)
      invocation in flight: charged to the unit of the most recent
      {!dispatch}, which under NT coupling is the one holding the
      barrier. *)

  val add_serialize_stalls : t -> int -> unit
  (** [add_serialize_stalls st k] = [k] calls of [serialize_stall st]. *)

  val unit_stats : t -> Sim_stats.unit_stats list
  (** The per-unit counters, ordered by unit id. *)
end
