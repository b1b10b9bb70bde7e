(** Event sink: the collection side of the telemetry layer.

    A sink is an in-memory, append-only buffer of timestamped events —
    counter samples, spans and instants. It is the only record the
    telemetry layer keeps: {!Exporter} renders it as a Chrome
    [trace_event] file, and {!Metrics} and {!Profiler} compute their
    aggregates from its events.

    The instrumented code (the pipeline, the model sweeps, the CLI)
    takes a [Sink.t option] as an optional [?telemetry] argument:
    [None] is the disabled path and costs one pointer comparison per
    instrumentation site, so a run without telemetry is unperturbed
    both behaviourally and (to measurement noise) in time.
    Instrumentation only ever {e reads} simulator state — enabling a
    sink must never change simulation results, and the fuzz harness
    asserts exactly that.

    Timestamps are abstract doubles: simulator events use the cycle
    number, wall-clock spans ({!Timing}) use {!Timing.now_us}
    microseconds. The two families are kept apart by track
    ([pid]): {!track_sim} and {!track_wall}. Within a track, [tid]
    names the lane — wall-clock spans use the recording domain's id,
    so a multi-domain run renders as one Perfetto lane per domain. *)

type t

val create : ?interval:int -> unit -> t
(** [interval] (default 256 cycles, min 1) is the sampling period used
    by the simulator's per-interval counters. *)

val interval : t -> int

val track_sim : int
(** [pid] for cycle-timestamped simulator events (= 0). *)

val track_wall : int
(** [pid] for wall-clock spans from {!Timing} (= 1). *)

type event = {
  name : string;
  cat : string;
  ph : char;  (** Chrome phase: 'C' counter, 'X' complete span, 'i' instant *)
  ts : float;
  dur : float;  (** meaningful only for ph = 'X' *)
  pid : int;
  tid : int;  (** lane within the track; domain id for wall spans *)
  args : (string * Tca_util.Json.t) list;
}

val counter :
  t -> ?pid:int -> ?tid:int -> ?cat:string -> ts:float -> string ->
  (string * float) list -> unit
(** One sample of a multi-series counter (Chrome 'C'). *)

val span :
  t -> ?pid:int -> ?tid:int -> ?cat:string ->
  ?args:(string * Tca_util.Json.t) list ->
  ts:float -> dur:float -> string -> unit
(** A completed interval of work (Chrome 'X'). Negative durations are
    clamped to 0 rather than rejected: the sink never raises. *)

val instant :
  t -> ?pid:int -> ?tid:int -> ?cat:string ->
  ?args:(string * Tca_util.Json.t) list ->
  ts:float -> string -> unit
(** A point event (Chrome 'i'). *)

val events : t -> event list
(** All events in emission order. *)

val length : t -> int
val clear : t -> unit

(** {2 Fork/join — the multi-domain protocol}

    A sink is a {e single-domain} object: two domains must never push
    into the same sink concurrently. Parallel work instead forks one
    child sink per task, each task records into its own child on its
    own domain, and the owner joins the children back {e in task-index
    order} once all tasks have settled. Because a serial execution
    also emits task [i]'s events before task [i+1]'s, the joined
    event sequence is identical to the serial one — only wall-clock
    timestamps and durations differ. {!Timing.fan_out} is the one
    implementation of this protocol over a {!Tca_util.Parmap.t}. *)

val fork : t -> t
(** A fresh, empty sink with the parent's sampling interval. *)

val join : into:t -> t -> unit
(** Append the child's events (in their emission order) to [into]. The
    child is not modified and may be joined only once unless duplicated
    events are intended. Must be called from the domain that owns
    [into], after the child's task has finished. *)
