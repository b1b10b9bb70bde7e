(** Cycle-granular bandwidth reservation for shared memory ports.

    Core loads and accelerator line requests all book slots here, which
    models the paper's "all memory requests required by the accelerator
    pass through arbitration for shared access to the core's LSQ and
    memory hierarchy" with age-order priority (older instructions issue,
    and therefore reserve, first).

    Bookings are exact however far ahead they land: a booking is never
    dropped or overwritten, and {!reserve} never fails. *)

type t

val create : width:int -> horizon:int -> t
(** [width] slots per cycle. [horizon] is the initial reach of the
    booking ring in cycles; it only sizes the first allocation, the ring
    grows on demand. Raises [Invalid_argument] on [width < 1] or
    [horizon < 2]. *)

val advance : t -> now:int -> unit
(** Declare the current cycle: no later {!reserve} asks for a cycle
    before [now], so bookings in the past are dead and their storage is
    reused. Call once per simulated cycle. Without it every booking stays
    live (correct, but the ring keeps growing). *)

val reserve : t -> now:int -> int
(** Book one slot at the earliest cycle [>= now] with spare capacity and
    return that cycle. [now] must not precede the last {!advance}. *)
