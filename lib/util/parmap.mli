(** A pluggable parallel-map capability.

    Low layers (the model's sweeps, the simulator's mode comparison)
    accept a [Parmap.t] so a scheduler higher in the stack can inject a
    domain pool without those layers depending on it. The contract every
    implementation must honour:

    - [run f xs] returns exactly [Array.map f xs]: one result per input,
      in input order, regardless of execution order;
    - [f] may run on any domain, concurrently with other elements, so it
      must not share mutable state across elements;
    - if any [f x] raises, [run] raises the exception of the {e
      lowest-indexed} failing element, after all elements have settled.

    [serial] is the identity implementation: plain [Array.map] on the
    calling domain. Code written against this interface is
    deterministic by construction — swapping [serial] for a pool must
    not change any result, only wall-clock time. *)

type t = { run : 'a 'b. ('a -> 'b) -> 'a array -> 'b array }

val serial : t
(** [Array.map] on the calling domain. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List façade over [run], preserving order. *)
