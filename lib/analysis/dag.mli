(** Register and memory dependency DAG over a linear instruction trace.

    Nodes are trace indices; edges always point forward (older to
    younger). Two families of edges are distinguished:

    - {e timing} edges the simulator actually enforces — register true
      dependences through the rename table ({!True_reg}) and
      store-to-load forwarding/blocking on an exact address match
      ({!True_mem}). Only these may enter a critical-path bound.
    - {e dataflow} edges that exist in the program's data but that the
      pipeline model deliberately does not order ({!Mem_data}:
      accelerator read/write sets versus plain loads/stores, resolved at
      cache-line granularity), plus the classic false dependences
      ({!Anti}, {!Output}) that renaming removes.

    Construction is a single linear scan with last-writer/last-reader
    tables, O(instructions + edges). *)

type kind =
  | True_reg  (** read-after-write through an architectural register *)
  | True_mem  (** load after store to the same exact address *)
  | Mem_data
      (** line-granular dataflow between accelerator read/write sets and
          plain memory traffic; {e not} enforced by the simulator *)
  | Anti  (** write-after-read of a register *)
  | Output  (** write-after-write of a register *)

type stats = {
  nodes : int;
  true_reg : int;
  true_mem : int;
  mem_data : int;
  anti : int;
  output : int;
  depth : int;
      (** longest chain of timing edges ({!True_reg}/{!True_mem}),
          counted in nodes; 0 for an empty trace, 1 for a trace with no
          timing edge *)
}

type t

val build : ?line_bytes:int -> Tca_uarch.Isa.instr array -> t
(** [line_bytes] defaults to 64, the cache line size used everywhere in
    the repository. *)

val preds : t -> int -> (int * kind) list
(** Predecessors of a node with the connecting edge kind. *)

val stats : t -> stats
val stats_to_json : stats -> Tca_util.Json.t
