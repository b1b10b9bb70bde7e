(** Wall-clock spans over an optional sink.

    This is the model-side and harness-side instrumentation primitive:
    wrap a sweep, a figure regeneration or a bench target in
    {!with_span} and the elapsed time lands in the sink as one 'X' span
    on {!Sink.track_wall}, in microseconds since the process first used
    this module. {!Metrics} derives a [<name>.calls] counter and a
    [<name>.seconds] histogram from those spans.

    The clock is CLOCK_MONOTONIC, not the adjustable wall clock, so a
    span can never have a negative duration (an NTP step between start
    and stop used to produce one). Spans are recorded with
    [tid = Domain.self ()], giving every domain its own timeline lane
    in the Chrome trace and in {!Profiler} reports.

    All functions accept [Sink.t option] so call sites can pass their
    [?telemetry] argument straight through; [None] runs the thunk with
    zero bookkeeping. Exceptions propagate unchanged, and the span is
    still recorded (spans measure elapsed time, not success).

    {!fan_out}, the parallel map with per-task sinks, lives here too:
    its join is itself a wall-clock span. *)

val now_us : unit -> float
(** Microseconds of monotonic time elapsed since this module's first
    use in the process: a stable, never-decreasing base for trace
    timestamps. *)

val domain_tid : unit -> int
(** The calling domain's id, as used for the [tid] of recorded spans. *)

val with_span :
  ?args:(string * Tca_util.Json.t) list ->
  Sink.t option -> string -> (unit -> 'a) -> 'a

val record_span :
  ?args:(string * Tca_util.Json.t) list ->
  ?ts:float ->
  Sink.t option -> string -> seconds:float -> unit
(** Record an externally measured duration. [ts] is the span's start in
    {!now_us} microseconds; when omitted the span is assumed to end
    "now" — only safe if nothing happened between measuring [seconds]
    and this call, since a late recorded start can place a parent after
    its first child and confuse {!Profiler}'s nesting sweep. *)

val fan_out :
  ?telemetry:Sink.t ->
  ?par:Tca_util.Parmap.t ->
  (telemetry:Sink.t option -> 'a -> 'b) ->
  'a array ->
  'b array
(** [fan_out ?telemetry ?par f xs] is [Array.map] through [par]
    (default {!Tca_util.Parmap.serial}) with the {!Sink} fork/join
    protocol around it: element [i] runs [f] with its own
    {!Sink.fork} of [telemetry] ([None] when telemetry is off, and then
    no sink is created), and once every element has settled the
    children are joined back into [telemetry] in element order, under a
    [telemetry.join] span. Results and the joined event sequence are
    therefore the same for every [par]. This is the one place parallel
    work forks sinks. If an element raises, the exception propagates as
    [par] reports it and no child is joined. *)
