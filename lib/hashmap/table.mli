(** An open-addressing (linear-probing) hash table over a flat arena —
    the substrate behind the hash-map TCA case study (one of the paper's
    Fig. 2 fine-grained reference accelerators, after the PHP
    server-side acceleration work the paper cites).

    Layout matters here: bucket [i] lives at [base + 16 * i] (8-byte key,
    8-byte value), so the trace generators can emit the exact cache-line
    traffic a software probe sequence — or the accelerated probe
    instruction — would produce. *)

type t

val create : ?base:int -> capacity_pow2:int -> unit -> t
(** [capacity_pow2] is the log2 of the bucket count (4..24). [base]
    defaults to 0x2000_0000 (clear of the other workloads' regions). *)

val capacity : t -> int
val length : t -> int

type probe_result = {
  found : bool;
  probes : int;  (** buckets inspected, >= 1 *)
  bucket_addrs : int list;  (** byte address of each inspected bucket *)
  value : int option;
}

val find : t -> int -> probe_result
(** Lookup with full probe trace. Keys are non-negative; raises
    [Invalid_argument] otherwise. *)

val insert : t -> int -> int -> probe_result
(** Insert or update; raises [Failure] when the table is full. The probe
    trace covers the buckets inspected to find the slot. *)

val remove : t -> int -> probe_result
(** Tombstone deletion; [found = false] when absent. Only a later insert
    of the same key reuses the tombstone's slot. *)

val check_invariants : t -> (unit, string) result
(** Every stored key is findable; length matches occupied slots. *)
