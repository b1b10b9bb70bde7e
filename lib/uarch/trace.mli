(** Instruction traces and their construction.

    A trace is an immutable array of {!Isa.instr} values plus a lazily
    built {!Decoded} struct-of-arrays form that the simulator hot path
    indexes instead of chasing per-instruction records. *)

(** Flat, pre-decoded view of a trace: one int per field per
    instruction, plus a shared pool for accelerator read/write address
    lists. Built once per trace (see {!val:decoded}) so repeated
    simulation — mode comparisons, sweeps, batches — never re-decodes.

    The arrays are exposed for direct indexing from the simulator's
    inner loop; treat them as read-only. For instruction [i]:
    [op.(i)] is one of the [op_*] codes, [accel_lat.(i)] /
    [reads_off.(i)] / [reads_len.(i)] / [writes_off.(i)] /
    [writes_len.(i)] describe an [op_accel] instruction's latency and
    its address spans inside [accel_mem], and are all zero
    otherwise. *)
module Decoded : sig
  val op_int_alu : int
  val op_int_mult : int
  val op_fp_alu : int
  val op_fp_mult : int
  val op_load : int
  val op_store : int
  val op_branch : int
  val op_accel : int

  type t = {
    n : int;  (** instruction count, [= Array.length op] *)
    op : int array;  (** [op_*] code per instruction *)
    src1 : int array;
    src2 : int array;
    dst : int array;  (** registers; {!Isa.no_reg} when absent *)
    addr : int array;
    pc : int array;
    taken : bool array;  (** branch outcome; [false] for non-branches *)
    accel_lat : int array;  (** accel compute latency, else [0] *)
    accel_unit : int array;  (** accel unit id ({!Isa.accel.unit_id}), else [0] *)
    reads_off : int array;  (** offset of the read set in [accel_mem] *)
    reads_len : int array;
    writes_off : int array;  (** offset of the write set in [accel_mem] *)
    writes_len : int array;
    accel_mem : int array;
        (** shared address pool for every accel instruction's reads and
            writes, in trace order (reads then writes per instruction) *)
  }

  val op_code : Isa.op -> int
end

type t = private {
  instrs : Isa.instr array;
  mutable decoded_ : Decoded.t option;
      (** memo for {!val:decoded}; never inspect directly *)
}

val of_array : Isa.instr array -> t
(** Validates the trace (see {!validate}); raises [Invalid_argument] on a
    malformed trace. The array is not copied. *)

val length : t -> int
val get : t -> int -> Isa.instr
val iter : (Isa.instr -> unit) -> t -> unit

val decoded : t -> Decoded.t
(** The struct-of-arrays form, built on first use and memoized.
    Thread-safety: the memo write is a benign race (decoding is pure and
    the store is atomic), but to avoid duplicated work decode eagerly
    before fanning a trace out across domains, as
    {!Simulator.run_batch} does. *)

val validate : Isa.instr array -> (unit, string) result
(** Registers in range, non-negative addresses, non-negative accelerator
    latencies, and no no-op accelerator invocations (empty read and
    write sets with zero compute latency — such an instruction would
    silently skew the [a]/[A] inputs derived for the analytical
    model). *)

type counts = {
  total : int;
  int_alu : int;
  int_mult : int;
  fp_alu : int;
  fp_mult : int;
  loads : int;
  stores : int;
  branches : int;
  accels : int;
}

val counts : t -> counts

val counts_to_json : counts -> Tca_util.Json.t
(** Shared schema between [tca analyze --json] and [tca trace-report]. *)

val to_channel : out_channel -> t -> unit
(** Write the trace in the textual interchange format: a header line
    [tca-trace 1 <count>] followed by one instruction per line. Accel
    instructions with a non-zero unit id carry it as one extra trailing
    field; unit-0 invocations are written exactly as before unit ids
    existed, so single-unit traces round-trip byte-identically. *)

val of_channel : in_channel -> t
(** Parse the interchange format; raises [Failure] with a line-numbered
    message on malformed input. Accepts both accel line shapes (with and
    without the trailing unit id). *)

val save : string -> t -> unit
val load : string -> t

(** Incremental construction with automatic PC assignment (4 bytes per
    μop, like a fixed-width ISA). *)
module Builder : sig
  type trace := t
  type t

  val create : ?capacity:int -> unit -> t
  val add : t -> Isa.instr -> unit
  (** Appends, overriding the instruction's [pc] with the next sequential
      value. *)

  val add_at_site : t -> Isa.instr -> unit
  (** Appends keeping the instruction's own [pc]: used for branches that
      belong to a recurring static site (loops, library calls), so the
      branch predictor sees repeated PCs as it would in a real binary. *)

  val length : t -> int
  val build : t -> trace
end
