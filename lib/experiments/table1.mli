(** Table I: analytical-model parameter glossary, with the preset values
    used throughout the reproduction. *)

val rows : unit -> string list list
val artifact : unit -> Tca_engine.Artifact.t
