(** Render a {!Sink} buffer as a Chrome [trace_event] file — a single
    JSON object [{"traceEvents": [...], ...}] loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing], whose
    timestamps map cycle numbers (or microseconds, for wall-clock
    spans) onto the format's microsecond [ts] field — and a
    {!Metrics} registry as one JSON document. *)

val chrome_trace_json : Sink.t -> Tca_util.Json.t
(** The trace as a JSON value (used by the golden tests). *)

val event_json : Sink.event -> Tca_util.Json.t
(** One event in [trace_event] dict form. *)

val write_chrome_trace : Sink.t -> string -> (unit, Tca_util.Diag.t) result
(** Write the Chrome trace to a file. [Error (Invalid _)] on I/O
    failure (unwritable path). *)

val write_metrics_json : Metrics.t -> string -> (unit, Tca_util.Diag.t) result
(** Write just a registry snapshot as one indented JSON document. *)
