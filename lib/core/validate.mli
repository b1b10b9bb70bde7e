(** Model-vs-measurement bookkeeping for the validation experiments
    (paper Figs. 4-6). *)

type point = {
  id : string;  (** workload / configuration label *)
  mode : Mode.t;
  measured : float;  (** simulator speedup *)
  estimated : float;  (** analytical-model speedup *)
}

type summary = {
  n : int;
  mean_abs_pct : float;  (** mean |error| in percent *)
  median_abs_pct : float;
  max_abs_pct : float;
}

val error : point -> (float, Diag.t) result
(** Signed relative error [(estimated - measured) / measured].
    [Error (Invalid _)] when [measured = 0]. *)

val summarize : point list -> (summary, Diag.t) result
(** [Error (Empty_input _)] on an empty list; also propagates any
    per-point [error] failure (e.g. a zero measurement). *)

val trends_preserved : ?tolerance:float -> point list -> bool
(** [true] iff, within every [id] group and for every pair of modes whose
    measured speedups differ by more than [tolerance] (relative, default
    2%), the estimates order that pair the same way — the paper's
    "correctly predicts overarching trends" criterion. Pairs inside the
    tolerance band are measurement ties and don't constrain the model. *)
