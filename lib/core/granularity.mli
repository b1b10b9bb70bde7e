(** Speedup as a function of accelerator granularity (paper Fig. 2).

    Granularity [g = a / v] is the average number of acceleratable
    instructions covered by one invocation. Coarse accelerators (H.264,
    TPU) live at [g ~ 10^7..10^9] where the four modes coincide;
    fine-grained TCAs (heap manager, string functions) live at
    [g ~ 10..10^3] where mode choice decides between speedup and
    slowdown. *)

type marker = {
  name : string;
  granularity : float;  (** instructions per invocation, estimated *)
}

val reference_markers : marker list
(** The eight points of reference from Fig. 2 (H.264, TPU, GreenDroid,
    speech/STTNI, regex, string functions, hash map, heap management).
    Granularities are estimates, as in the paper ("markers ... are
    estimated for points of reference"). *)

val series :
  Params.core ->
  a:float ->
  accel:Params.accel_time ->
  gs:float array ->
  (Mode.t * (float * float) array) list
(** For each mode, the [(g, speedup)] series over the granularity sweep
    [gs] with fixed acceleratable fraction [a]. *)

val crossover_granularity :
  Params.core -> a:float -> accel:Params.accel_time -> Mode.t -> float option
(** Smallest granularity in a dense internal sweep at which the mode stops
    causing slowdown (speedup >= 1). [None] if it always speeds up, or
    never does, within [1, 1e9]. *)

(** Smallest granularity in a dense internal sweep at which the mode stops
    causing slowdown (speedup >= 1). [None] if it always speeds up, or
    never does, within [1, 1e9]. *)
