(** String-function microbenchmark: a mix of strlen / strcmp / find_char
    calls over a real string arena (log-normal-ish length distribution),
    with per-call byte counts from the actual string data. Granularity
    lands in the low-hundreds-of-μops band of the paper's Fig. 2
    "string functions" marker. *)

type config = {
  n_calls : int;
  app_instrs_per_call : int;
  app : Codegen.config;
  seed : int;
}

val config :
  ?app:Codegen.config -> ?seed:int -> n_calls:int -> app_instrs_per_call:int ->
  unit -> config
(** The arena holds 512 strings of 8..120 characters. *)

val generate : config -> Meta.pair * float
(** The pair plus the mean bytes inspected per call. *)
