(** Self-time profiler over a sink's wall-clock spans.

    Consumes the 'X' spans on {!Sink.track_wall} — one lane per
    recording domain — and recovers, per lane, the span call tree and
    each span's {e self} time (duration minus direct children). On top
    of that it buckets every span name into one of six fixed
    components: [decode], [sim], [fork_join], [cache], [scheduler] and
    [other]. [decode] collects [sim.decode*] spans, which the simulator
    does not emit (a trace packs its columns when it is built): it
    reads 0 and is kept so that the component keys stay fixed.

    The component table is computed over the {e owner lane}, the lane
    carrying the {!total_span_name} span that [tca profile] wraps
    around a whole run. Owner-lane spans nest exactly, so the six
    buckets sum to the total span's duration: 100% of the profiled
    wall-clock is attributed. Worker-lane CPU time appears in the
    per-lane and self-time tables.

    The report is a pure function of the event list: byte-identical
    output for identical input, with fixed component keys and
    totally-ordered sorts — the schema-stability contract the
    determinism test pins. *)

type row = {
  name : string;
  calls : int;
  total_s : float;  (** summed span durations *)
  self_s : float;  (** summed durations minus direct-children time *)
}

type lane = {
  tid : int;  (** recording domain id *)
  busy_s : float;  (** summed root-span durations on this lane *)
  spans : int;
  tasks : int;  (** number of [task.run] spans (scheduler tasks) *)
}

type t = {
  wall_s : float;
      (** duration of {!total_span_name} when present, else the extent
          of all wall spans *)
  cpu_s : float;  (** summed busy time across lanes *)
  owner_tid : int;
  lanes : lane list;  (** sorted by tid *)
  rows : row list;  (** all lanes, sorted by self time descending *)
  components : (string * float) list;
      (** the six fixed buckets, in fixed order, seconds of owner-lane
          self time each *)
  attributed_s : float;  (** sum of the component buckets *)
  gc : (string * int) list;
      (** the [task.gc.*] {!Metrics} counters — the [gc_*] arguments of
          every [task.run] span, summed — in fixed key order; empty when
          there is no [task.run] span *)
}

val total_span_name : string
(** ["profile.total"] — the whole-run span [tca profile] records. *)

val component_names : string list
(** The six bucket names, in report order. *)

val component_of : string -> string
(** The bucket a span name attributes to. *)

val of_events : Sink.event list -> t

val of_sink : Sink.t -> t
(** [of_events] over the sink's events. *)

val attributed_fraction : t -> float
(** [attributed_s / wall_s]; 1.0 for an empty profile. *)

val to_json : t -> Tca_util.Json.t
(** Schema [tca-profile-1]: fixed keys, fixed component set, rows
    sorted — byte-identical for identical input. *)

val pp : Format.formatter -> t -> unit
