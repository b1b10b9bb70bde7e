open Tca_util

let event_json (e : Sink.event) =
  let base =
    [
      ("name", Json.String e.Sink.name);
      ("cat", Json.String e.Sink.cat);
      ("ph", Json.String (String.make 1 e.Sink.ph));
      ("ts", Json.Float e.Sink.ts);
      ("pid", Json.Int e.Sink.pid);
      ("tid", Json.Int e.Sink.tid);
    ]
  in
  let dur = if e.Sink.ph = 'X' then [ ("dur", Json.Float e.Sink.dur) ] else [] in
  (* Instant events need a scope for the viewers; "t" = thread. *)
  let scope = if e.Sink.ph = 'i' then [ ("s", Json.String "t") ] else [] in
  let args =
    match e.Sink.args with [] -> [] | a -> [ ("args", Json.Obj a) ]
  in
  Json.Obj (base @ dur @ scope @ args)

(* Metadata ('M') events naming the process and thread lanes, so the
   tracks read as "simulator (cycles)" / "wall clock" with one "domain
   N" row per recording domain instead of bare pid/tid integers.
   Synthesized at export time from the distinct lanes present — they
   are presentation, not data, and never enter the sink. *)
let lane_metadata events =
  let meta ~pid ?tid name value =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String "M");
         ("pid", Json.Int pid);
       ]
      @ (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
      @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ])
  in
  let seen_pid = Hashtbl.create 4 and seen_lane = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Sink.event) ->
      if not (Hashtbl.mem seen_pid e.Sink.pid) then begin
        Hashtbl.replace seen_pid e.Sink.pid ();
        let pname =
          if e.Sink.pid = Sink.track_sim then "simulator (cycles)"
          else if e.Sink.pid = Sink.track_wall then "wall clock"
          else Printf.sprintf "track %d" e.Sink.pid
        in
        out := meta ~pid:e.Sink.pid "process_name" pname :: !out
      end;
      if
        e.Sink.pid = Sink.track_wall
        && not (Hashtbl.mem seen_lane (e.Sink.pid, e.Sink.tid))
      then begin
        Hashtbl.replace seen_lane (e.Sink.pid, e.Sink.tid) ();
        out :=
          meta ~pid:e.Sink.pid ~tid:e.Sink.tid "thread_name"
            (Printf.sprintf "domain %d" e.Sink.tid)
          :: !out
      end)
    events;
  List.rev !out

let chrome_trace_json sink =
  let events = Sink.events sink in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (lane_metadata events @ List.map event_json events) );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("producer", Json.String "tca-telemetry");
            ("clock", Json.String "cycles-as-us");
          ] );
    ]

(* Both files go through the temp+rename path of every other output:
   an interrupted write leaves the previous file or the complete new
   one, never truncated JSON. *)
let write_chrome_trace sink path =
  Atomic_file.write_with path (fun oc ->
      (* Stream event-by-event: a long run's trace never needs the whole
         serialised document in memory at once. *)
      let events = Sink.events sink in
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i j ->
          if i > 0 then output_char oc ',';
          output_string oc "\n  ";
          output_string oc (Json.to_string j))
        (lane_metadata events @ List.map event_json events);
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")

let write_metrics_json sink path =
  Atomic_file.write path
    (Json.to_string_indent (Metrics.to_json (Metrics.of_sink sink)) ^ "\n")
