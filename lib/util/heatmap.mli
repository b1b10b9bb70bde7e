(** ASCII heatmap rendering for the Fig. 7-style speedup/slowdown maps.

    Values are speedups: [> 1] renders on the "speedup" ramp, [< 1] on the
    "slowdown" ramp (the paper uses red and blue; a terminal gets
    characters of increasing density instead). *)

type t
(** A labelled grid of speedups plus optional overlay markers. Row 0 is
    printed first. *)

val make :
  values:float array array ->
  row_labels:string array ->
  col_labels:string array ->
  (t, Diag.t) result
(** Validates that dimensions agree: [Error (Empty_input _)] on an empty
    grid, [Error (Ragged_input _)] on ragged rows or label/row count
    mismatches. *)

val cell_char : float -> char
(** Character for one speedup value: ['#'] strong speedup down to ['.']
    mild, [' '] neutral (within 2% of 1.0), and ['-'/'='/'%'/'@'] for
    increasingly strong slowdown. *)

val render : ?title:string -> t -> string
(** Render grid with axis labels and a legend. *)

val overlay : t -> (int * int) list -> char -> t
(** [overlay t cells c] returns a copy where the listed (row, col) cells
    will render as the marker character [c] (used to draw the heap-manager
    and GreenDroid curves over the map). Out-of-range cells are ignored. *)
