(** Content-addressed, crash-safe result cache for job artifacts.

    Keys are the hex digest of the model-version salt plus the job's
    canonical input fingerprint ({!Job.fingerprint}); values are the
    lossless {!Artifact.serialize} form. Two layers: an in-memory table
    (always on) and an optional directory ([dir/<key>.json]) that
    persists across processes — [tca run --cache-dir].

    Crash safety, both directions:
    - {b writes} go through {!Tca_util.Atomic_file} (temp file in the
      cache directory + rename), so a [kill -9] mid-store leaves either
      the old entry or the new one, never a truncated file at the
      addressed path;
    - {b reads} verify an MD5 checksum header over the payload before
      parsing, and the payload itself must survive the shape-checked
      {!Artifact.deserialize}. An entry that fails any of these —
      truncated, bit-flipped, stale-schema, hand-edited — is moved to
      [dir/quarantine/] (kept for post-mortem, removed from the
      addressed path so it can never be re-served), counted in
      {!quarantined} and reported as a miss. Corruption degrades a warm
      run to a cold one; it never poisons it.

    Not domain-safe: the scheduler performs all lookups before and all
    stores after its parallel phase, on one domain. *)

type t

val create : ?dir:string -> unit -> t
(** With [dir], the directory is created (one level) if missing. *)

val dir : t -> string option

val version_salt : string
(** Folded into every key. Bump when the model, the artifact schema or
    the on-disk entry format changes, so stale entries are simply never
    addressed (a miss, not a quarantine). *)

val entry_magic : string
(** First token of every on-disk entry: ["tca-cache-1 <md5-of-payload>"]
    on line one, the serialized artifact JSON after it. *)

val key : t -> Job.t -> quick:bool -> string
(** Stable content address (32 hex chars). *)

val find : t -> string -> Artifact.t option
(** Memory first, then disk; a disk hit is promoted to memory. Updates
    the hit/miss counters; a corrupt disk entry is quarantined and
    counted as a miss. *)

val store : t -> string -> Artifact.t -> unit
(** Insert into memory and, when [dir] is set, write the checksummed
    entry file atomically. Disk write failures are silently ignored —
    the cache is an accelerator, not a store of record. *)

val hits : t -> int
val misses : t -> int

val quarantined : t -> int
(** Corrupt entries moved to [dir/quarantine/] by this process. *)
