(** Symbolic effect summaries: an abstract interpretation of a trace
    into per-register and per-address value terms.

    Every instruction's result is a term over the initial machine state,
    with accelerator invocations treated as uninterpreted functions of
    their explicit register operand and the contents of their declared
    read lines. The summary is the semantic object the equivalence
    checker ({!Equiv}) compares across a baseline/accelerated trace
    pair, and the structure the fuzz differential validates against the
    concrete reference interpreter ({!interpret}).

    This is the value-flow sibling of {!Dag}: the same last-writer
    machinery (exact-address store cells plus line-granular accelerator
    clobbers), but recording {e which value} flows rather than {e that an
    edge exists}. *)

type loc = Reg of int | Mem of int  (** exact byte address *) | Line of int
    (** line base address (whole-line accelerator write) *)

(** Term nodes. Argument ids always precede the referencing node in the
    arena, so arena order is a topological order. *)
type node =
  | Zero  (** absent operand ([Isa.no_reg]) *)
  | Init_reg of int  (** register's pre-trace value *)
  | Init_mem of int  (** address's pre-trace value *)
  | Init_line of int  (** a whole line's pre-trace value *)
  | Op of { idx : int; cls : int; args : int array }
      (** result of instruction [idx] ([cls] is the
          {!Tca_uarch.Trace.Decoded} op code); for loads [args] is
          [|base; memory cell|], for stores [|base; source|] (the stored
          value), for branches [|src1|] (the tested value) *)
  | Accel_app of { idx : int; ord : int; unit : int; args : int array }
      (** invocation [ord] (0-based, in trace order) of TCA unit [unit]
          at instruction [idx], applied to its register operand and
          read-line terms; heterogeneous units compute different
          functions, so [unit] is part of the node's identity *)
  | Accel_out of { app : int; loc : loc }
      (** projection of one output location of invocation [app] *)

type t = {
  nodes : node array;  (** term arena, topologically ordered *)
  instr_node : int array;  (** node id per instruction index *)
  regs : int array;  (** final term per architectural register *)
  reg_written : bool array;  (** whether the trace ever wrote the register *)
  mem : (int, int) Hashtbl.t;  (** final term per exactly-written address *)
  line_owner : (int, int) Hashtbl.t;
      (** line base -> [Accel_app] node of the youngest whole-line
          accelerator write; covers addresses of the line without an
          exact [mem] cell *)
  accels : int array;  (** instruction index per invocation ordinal *)
  line_bytes : int;
}
(** Treat all fields as read-only. *)

val summarize : ?line_bytes:int -> Tca_uarch.Isa.instr array -> t
(** One linear scan; [line_bytes] (default 64) sets the granularity of
    accelerator read/write footprints. Never raises on inputs accepted
    by {!Tca_uarch.Trace.validate} (and tolerates most that are not). *)

val producer : t -> int -> int option
(** Instruction index that produced a node ([None] for initial-state
    leaves and [Zero]). *)

val term_to_string : t -> int -> string
(** Compact rendering of a term, truncated below depth 3 and eliding
    wide accelerator argument lists — for divergence witnesses, not
    round-tripping. *)

(** {2 Concrete reference semantics}

    An independent interpreter over concrete integers: initial state and
    operator semantics are fixed deterministic mixing functions, so any
    structural mistake in {!summarize} (a missed clobber, a stale cell,
    a wrong argument) shows up as a final-state disagreement. *)

type concrete = {
  c_regs : int array;
  c_mem : (int, int) Hashtbl.t;
  c_line_owner : (int, int) Hashtbl.t;
}

val interpret : ?line_bytes:int -> Tca_uarch.Isa.instr array -> concrete

val eval : t -> int array
(** Concrete value per arena node under the same initial-state and
    operator definitions as {!interpret}. *)

val check_agreement :
  ?line_bytes:int -> Tca_uarch.Isa.instr array -> (unit, string) result
(** The differential: {!summarize} + {!eval} must reproduce
    {!interpret}'s final registers, memory cells and line owners
    exactly. [Error] names the first disagreeing location. *)
