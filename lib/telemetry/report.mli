(** Summarize a Chrome [trace_event] file produced by {!Exporter}:
    the engine behind [tca trace-report].

    The report answers the three questions the paper's methodology
    keeps asking of a run: where did stall cycles go (top stall
    sources), when was the accelerator busy (occupancy timeline) and
    how did throughput evolve (per-interval dispatch/issue/commit
    table). It consumes the counter/span naming convention of the
    pipeline instrumentation ([sim.stalls], [sim.pipeline], [sim.rob]
    counters; [accel.invoke] spans) and degrades gracefully — a trace
    with none of those events yields an empty but valid report. *)

type interval_row = {
  ts : float;  (** cycle of the sample (end of the interval) *)
  committed : float;
  dispatched : float;
  issued : float;
  stalled : float;  (** sum of stall-reason deltas in the interval *)
  rob_avg : float;  (** mean ROB occupancy over the interval *)
}

type t = {
  events : int;  (** total events in the trace *)
  cycles : float;  (** extent of the simulator track *)
  runs : int;
      (** [sim.run] spans: one per simulator run recorded in the trace
          (a validation sweep records many, all starting at cycle 0) *)
  run_cycles : float;  (** summed [sim.run] durations *)
  stall_totals : (string * float) list;  (** per reason, sorted desc *)
  pipeline_totals : (string * float) list;  (** committed/dispatched/issued *)
  accel_spans : int;
  accel_busy : float;  (** summed accelerator span cycles *)
  occupancy : float array;  (** accelerator busy fraction per time bucket *)
  intervals : interval_row list;  (** in trace order *)
  wall_spans : (string * int * float) list;
      (** wall-clock spans: name, calls, total seconds — sorted by total
          desc; present when the trace came from an instrumented sweep *)
}

val buckets : int
(** Number of occupancy-timeline buckets (fixed, 48). *)

val of_json : Tca_util.Json.t -> (t, Tca_util.Diag.t) result
(** Accepts the [{"traceEvents": [...]}] object form or a bare event
    array. [Error (Invalid _)] on any other shape; individual events
    that are not objects are skipped, not fatal. *)

val of_file : string -> (t, Tca_util.Diag.t) result
(** Read and parse the file, then {!of_json}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: run count, stall table, ASCII occupancy
    timeline, interval table (elided in the middle when long). Stall
    and occupancy shares are taken of [run_cycles] when the trace has
    [sim.run] spans, else of [cycles]. *)
