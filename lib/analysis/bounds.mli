(** OSACA-style static performance bounds for a trace on a core config.

    Three independent lower bounds on simulated execution cycles, each
    provably conservative against the cycle-level pipeline model:

    - {b latency bound}: longest chain of simulator-enforced true
      dependences ({!Dag.True_reg}/{!Dag.True_mem}), each instruction
      charged its minimum execution latency and no instruction allowed
      to complete before [floor(index / dispatch_width) + 1 + latency]
      (the dispatch-bandwidth floor), plus the commit depth of the last
      retiring instruction.
    - {b throughput bound}: the tightest of the dispatch/issue/commit
      width ceilings, the per-class functional-unit ceilings, the memory
      port-cycle ceiling (loads that can never forward, accelerator line
      reads and writes — retired stores drain for free), and, under
      [Exclusive] TCA occupancy, the serialized accelerator service sum.
    - {b ROB bound} (Little's law): every instruction holds its ROB slot
      for at least [latency + commit_depth + 1] cycles and at most
      [rob_size] instructions are in flight per cycle.

    [cycles_lower_bound = max] of the three; the IPC upper bound is
    [instrs / cycles_lower_bound]. The fuzz harness and the workload
    tests assert [cycles_lower_bound <= simulated cycles] on every
    completed run. *)

type t = {
  instrs : int;
  latency_bound : int;
  throughput_bound : int;
  rob_bound : int;
  cycles_lower_bound : int;  (** max of the three bounds; 0 when empty *)
  ipc_upper_bound : float;  (** 0 when the trace is empty *)
  critical_path_length : int;
      (** instructions on the binding latency chain *)
}

val compute : ?dag:Dag.t -> Tca_uarch.Config.t -> Tca_uarch.Isa.instr array -> t
(** [dag] may be supplied to reuse an already-built DAG; it must have
    been built over the same instruction array. *)

val to_json : t -> Tca_util.Json.t
val pp : Format.formatter -> t -> unit
