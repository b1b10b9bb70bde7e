(** Atomic whole-file writes: temp file in the target directory, then
    [Sys.rename].

    Readers of [path] see either the previous contents or the complete
    new contents, never a truncated mix — an interrupted bench, an
    aborted [--out DIR] export or a [kill -9] mid-write can no longer
    leave a half-written JSON for a downstream consumer to choke on.
    The temp file lives in the same directory as the target so the
    rename stays on one filesystem (rename is atomic only then); a
    failed write removes its temp file. *)

val write_with :
  string -> (out_channel -> unit) -> (unit, Diag.t) result
(** [write_with path f] replaces [path] atomically with what [f] writes
    to the channel it is given, so a large document can be streamed
    rather than built in memory first. [Error (Invalid _)] when the
    directory is unwritable, a write or the final flush fails, or the
    rename fails; the target is untouched in that case. An exception
    other than [Sys_error] raised by [f] propagates, after the temp
    file is removed. *)

val write : string -> string -> (unit, Diag.t) result
(** [write path contents] is [write_with] writing [contents]. *)
