(** Branch direction predictors.

    The simulator is trace-driven, so a mispredicted branch stalls the
    front end from its dispatch until resolution plus the redirect
    penalty (the standard trace-driven approximation: no wrong-path
    instructions are simulated). *)

type kind =
  | Perfect  (** always right — isolates TCA effects from branch noise *)
  | Bimodal of int  (** 2-bit counters, [2^bits] entries *)
  | Gshare of int  (** global history XOR pc, 2-bit counters *)
  | Tournament of int
      (** bimodal + gshare with a per-PC chooser (Alpha 21264 style):
          history-correlated branches use gshare, history-agnostic biased
          branches fall back to bimodal *)

type t

val create : kind -> t
(** Raises [Invalid_argument] when a table's [bits] is outside
    [\[1, 24\]]. *)

val predict : t -> pc:int -> bool
(** Prediction only; does not update state. For [Perfect] the caller
    should treat the prediction as always matching the outcome (the
    pipeline special-cases it). *)

val update : t -> pc:int -> taken:bool -> unit
(** Train counters and (for gshare) shift the actual outcome into the
    global history. *)

val is_perfect : t -> bool
