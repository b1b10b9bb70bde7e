(** μop cost model for software regex scanning and the regex TCA.

    The software scan is the DFA inner loop: per inspected character a
    byte load, transition-table index arithmetic, a transition load and
    an accept-check branch. The TCA is a hardware DFA (as in the
    server-side scripting accelerators the paper cites) that consumes
    16 text bytes per cycle, reading the text's cache lines. *)

val software_uops : chars_scanned:int -> int

val accel_compute_latency : chars_scanned:int -> int
(** ceil(chars / 16), at least 1. *)

val result_reg : int

val emit_search :
  Tca_uarch.Trace.Builder.t ->
  text_base:int ->
  start:int ->
  chars_scanned:int ->
  unit
(** Append the software scan touching the text bytes actually inspected
    (sequential from [text_base + start]). *)

val emit_search_accel :
  Tca_uarch.Trace.Builder.t ->
  text_base:int ->
  start:int ->
  chars_scanned:int ->
  unit
(** Append the TCA instruction reading the scanned text's lines. *)

val scanned_lines : text_base:int -> start:int -> chars_scanned:int -> int list
(** Distinct 64 B lines the scan touches. *)
