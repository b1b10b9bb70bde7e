(** μop cost model for software string functions and the string TCA.

    Software: the classic byte loop — load, compare, branch, advance —
    per inspected byte, plus setup. Accelerated: an SSE4.2/STTNI-style
    instruction processing 16 bytes per cycle, reading
    the inspected bytes' cache lines. *)

val software_uops : bytes_inspected:int -> int

val accel_compute_latency : bytes_inspected:int -> int

val result_reg : int

val emit_call :
  Tca_uarch.Trace.Builder.t -> addrs:int list -> unit
(** Append the software byte loop touching the scan's addresses. *)

val emit_call_accel :
  Tca_uarch.Trace.Builder.t -> addrs:int list -> bytes_inspected:int -> unit
(** Append the TCA instruction reading the scan's distinct lines. *)

val lines_of_addrs : int list -> int list
