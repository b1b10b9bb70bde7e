(** Regular-expression scanning microbenchmark: a log-scanning loop that
    searches each fixed-size text record for a pattern, using the real
    NFA/DFA engine to determine how many characters each search inspects.
    The baseline expands every search into the DFA software loop touching
    the actual text bytes; the accelerated variant issues one TCA
    instruction per record reading the scanned lines (a hardware DFA at
    16 bytes/cycle). Granularity lands in the ~10^3-μop band of the
    paper's Fig. 2 "regular expression" marker. *)

type config = {
  n_records : int;
  app_instrs_per_record : int;
  app : Codegen.config;
  seed : int;
}

val config :
  ?app:Codegen.config -> ?seed:int ->
  n_records:int -> app_instrs_per_record:int -> unit -> config
(** Records are 256 characters; 30% of them carry a planted match of
    the pattern ["err(or)?[0-9]+"]. *)

val generate : config -> Meta.pair * float
(** The pair plus the mean characters scanned per search. *)
