(** Render a {!Sink} buffer as a Chrome [trace_event] file — a single
    JSON object [{"traceEvents": [...], ...}] loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing], whose
    timestamps map cycle numbers (or microseconds, for wall-clock
    spans) onto the format's microsecond [ts] field — and the sink's
    {!Metrics} as one JSON document. Both files are written atomically
    ({!Tca_util.Atomic_file}): an interrupted write never leaves a
    truncated file behind. *)

val chrome_trace_json : Sink.t -> Tca_util.Json.t
(** The trace as a JSON value (used by the golden tests). *)

val event_json : Sink.event -> Tca_util.Json.t
(** One event in [trace_event] dict form. *)

val write_chrome_trace : Sink.t -> string -> (unit, Tca_util.Diag.t) result
(** Write the Chrome trace to a file, streamed event by event.
    [Error (Invalid _)] on I/O failure (unwritable path). *)

val write_metrics_json : Sink.t -> string -> (unit, Tca_util.Diag.t) result
(** Write {!Metrics.of_sink} as one indented JSON document.
    [Error (Invalid _)] on I/O failure. *)
