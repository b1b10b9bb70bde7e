(** Minimal JSON: a value type, compact/indented printers and a strict
    parser. Used by the telemetry exporters ({!Tca_telemetry}) for the
    Chrome [trace_event] and metrics documents, by [Sim_stats.to_json],
    and by [tca trace-report] to read a trace back. Deliberately tiny —
    no external dependency, no streaming — because every producer and
    consumer in this repository handles documents that fit in memory. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line serialisation. Non-finite floats are emitted as
    [null] (JSON has no NaN/infinity), matching what browsers accept. *)

val to_string_indent : t -> string
(** Two-space indented serialisation, for human-inspected files. *)

(** {2 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)

val to_float_opt : t -> float option
(** [Int] and [Float] both convert. *)

val to_int_opt : t -> int option
(** [Int] only (an exact [Float] is not silently truncated). *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option

val parse : string -> (t, Diag.t) result
(** Strict parse of one JSON document (trailing whitespace allowed).
    [Error (Parse _)] carries a character offset and reason. Integers
    without fraction/exponent parse as [Int]; everything else numeric as
    [Float]. *)
