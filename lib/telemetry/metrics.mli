(** Metrics: the aggregates of a sink's events.

    Where {!Sink} records a {e timeline} (events at timestamps), metrics
    are {e aggregates}: cumulative counts and latency distributions over
    many runs — the shape [--metrics] exports as JSON. They are not
    recorded separately: {!of_events} computes them from the events, so
    the trace and the metrics can never disagree.

    The view reads four kinds of event:
    - every wall-clock 'X' span named [n] (on {!Sink.track_wall}) counts
      one call in [n.calls] and observes its duration, in seconds, in
      the [n.seconds] histogram;
    - a wall-clock [task.run] span also observes its [wait_us] argument
      (in seconds) in [task.wait.seconds] and adds each [gc_<k>]
      argument to the counter [task.gc.<k>];
    - a [sim.run] span on {!Sink.track_sim} adds one to [sim.runs], its
      duration to [sim.cycles], and its [committed] and
      [accel_invocations] arguments to [sim.committed] and
      [sim.accel_invocations];
    - a wall-clock [grid.compute] span adds [rows × cols] to
      [grid.cells].

    Histograms share one bucket ladder: 1, 2 and 5 times each decade
    from 1e-6 to 1e3 (seconds), plus an overflow bucket. Names are
    dot-separated lowercase, as the span names are. *)

type t

val of_events : Sink.event list -> t
(** The aggregates of the events, in any order: each counter and
    histogram is a sum over events, so the result does not depend on
    how the events were ordered or joined. *)

val of_sink : Sink.t -> t
(** [of_events] over the sink's events. *)

val counter_value : t -> string -> int
(** 0 when the counter is absent — a read-side convenience that never
    fails. *)

val to_json : t -> Tca_util.Json.t
(** [{"counters": {...}, "histograms": {...}}] with names sorted, so
    the output is deterministic. A histogram is
    [{"count", "sum", "buckets": [{"le", "count"}, ...]}], with
    cumulative bucket counts and the overflow bucket's bound rendered
    as [null]. *)
