(** Column-aligned ASCII table rendering for the bench harness and CLI.

    All figure drivers print their rows through this module so the output
    that regenerates each paper table/figure has a uniform, diffable
    format. *)

val render : headers:string list -> string list list -> string
(** [render ~headers rows] lays out [rows] under [headers] with a separator
    rule, the first column left-aligned and the rest right-aligned. Each
    row must have the same arity as [headers]; raises [Invalid_argument]
    otherwise. *)

val print : headers:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val float_cell : ?decimals:int -> float -> string
(** Fixed-point formatting, default 3 decimals. *)

val pct_cell : ?decimals:int -> float -> string
(** [pct_cell x] renders the fraction [x] as a percentage with a [%]
    suffix, default 1 decimal. *)
