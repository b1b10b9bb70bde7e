(** Instruction traces and their construction.

    A trace is an immutable array of {!Isa.instr} values plus the
    {!Decoded} columns the simulator hot path indexes instead of
    chasing per-instruction records. {!of_array}, which every
    constructor ({!Builder.build}, {!of_channel}) goes through, packs
    the columns from the records once, when the trace is made. *)

(** Packed, read-only view of a trace, built once at construction (see
    {!val:decoded}), so repeated simulation — mode comparisons, sweeps,
    batches — never decodes.

    Per uop it holds four bytes, for the op code with the taken bit and
    for the three registers, and one int, the uop's one operand (the
    address of a load or store, the pc of a branch, an invocation's
    entry in an accelerator side table). The side table gives each
    invocation its latency, unit and the spans of its read and write
    addresses in a shared pool. That is 1.5 words per uop plus the side
    table, against the 13 of one int array per field.

    Accessors take a uop index [i]. [addr] is meaningful for an
    [op_load] or [op_store] uop only, [pc] for an [op_branch] uop only,
    and the [accel_*], [reads_*] and [writes_*] accessors for an
    [op_accel] uop only. *)
module Decoded : sig
  val op_int_alu : int
  val op_int_mult : int
  val op_fp_alu : int
  val op_fp_mult : int
  val op_load : int
  val op_store : int
  val op_branch : int
  val op_accel : int

  type t

  val op_code : Isa.op -> int

  val length : t -> int
  (** The trace's instruction count. *)

  val op : t -> int -> int
  (** One of the [op_*] codes. *)

  val taken : t -> int -> bool
  (** Branch outcome; [false] for non-branches. *)

  val src1 : t -> int -> int
  val src2 : t -> int -> int

  val dst : t -> int -> int
  (** Registers; {!Isa.no_reg} when absent. *)

  val addr : t -> int -> int
  val pc : t -> int -> int

  val accel_lat : t -> int -> int
  (** Compute latency ({!Isa.accel.compute_latency}). *)

  val accel_unit : t -> int -> int
  (** Unit id ({!Isa.accel.unit_id}). *)

  val reads_off : t -> int -> int
  (** Offset of the read set in the pool (see {!pool}). *)

  val reads_len : t -> int -> int

  val writes_off : t -> int -> int
  (** Offset of the write set in the pool. *)

  val writes_len : t -> int -> int

  val pool : t -> int -> int
  (** [pool d k] is the address at offset [k] of the shared pool that
      holds every invocation's reads and then its writes, in trace
      order. *)

  val invocations : t -> int
  (** Number of accelerator invocations, the side table's length. *)

  val invocation : t -> int -> int
  (** [invocation d j] is the uop index of the [j]-th invocation, in
      trace order. *)

  (** One uop's fields, as the accessors of the same names return them;
      [operand] is what {!addr} and {!pc} return. *)
  type uop = private {
    mutable op : int;
    mutable taken : bool;
    mutable src1 : int;
    mutable src2 : int;
    mutable dst : int;
    mutable operand : int;
  }

  val uop : unit -> uop
  (** A record for {!read} to fill. *)

  val read : t -> int -> uop -> unit
  (** [read d i u] fills [u] with uop [i]'s fields in one call, where
      the accessors take a call each: the simulator's dispatch reads
      every uop this way. *)
end

type t = private {
  instrs : Isa.instr array;
  decoded : Decoded.t;  (** the packed columns; see {!val:decoded} *)
}

val of_array : Isa.instr array -> t
(** Validates the trace (see {!validate}) and packs its {!Decoded}
    columns; raises [Invalid_argument] on a malformed trace. The array
    is not copied. *)

val length : t -> int
val get : t -> int -> Isa.instr
val iter : (Isa.instr -> unit) -> t -> unit

val decoded : t -> Decoded.t
(** The packed columns, built with the trace by {!of_array}. *)

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
    without the trailing unit id). The header's count is compared with
    the lines read, not used to size anything, so a short file claiming
    a huge count costs only what it holds. *)

val save : string -> t -> unit
(** Writes the interchange format atomically (see
    {!Tca_util.Atomic_file}): [path] holds either its old contents or
    the whole trace, never part of it.
    @raise Tca_util.Diag.Error when the file cannot be written. *)

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
