(** Minimal CSV emission (RFC 4180 quoting) so every figure driver can dump
    machine-readable series next to the ASCII rendering. *)

val escape : string -> string
(** Quote a field if it contains a comma, quote or newline. *)

val line : string list -> string
(** One CSV record, no trailing newline. *)

val to_string : header:string list -> string list list -> string
(** Full document with header row and trailing newline. *)
