(* Telemetry layer: Json round-trips, the metrics view, the sink and
   exporters, and — most importantly — the reconciliation guarantees: the
   per-interval counter deltas in a trace sum exactly to the final
   [Sim_stats] totals, and enabling telemetry does not change simulation
   results at all. *)

open Tca_telemetry
module Json = Tca_util.Json

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\x01");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 0.25; Json.String "" ]);
        ("o", Json.Obj []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')

let test_json_indent_roundtrip () =
  let v = Json.List [ Json.Obj [ ("x", Json.Int 1) ]; Json.Null ] in
  match Json.parse (Json.to_string_indent v) with
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok v' -> Alcotest.(check bool) "indent roundtrip" true (v = v')

let test_json_non_finite () =
  (* Non-finite floats serialize as null so the output stays valid JSON. *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ] in
  List.iter
    (fun input ->
      match Json.parse input with
      | Error (Tca_util.Diag.Parse _) -> ()
      | Error d ->
          Alcotest.failf "%S: wrong diag %s" input (Tca_util.Diag.to_string d)
      | Ok _ -> Alcotest.failf "%S parsed" input)
    bad

let test_json_accessors () =
  let v = Json.Obj [ ("a", Json.Int 3); ("b", Json.Float 0.5) ] in
  let get k conv = Option.bind (Json.member k v) conv in
  Alcotest.(check (option int)) "member int" (Some 3)
    (get "a" Json.to_int_opt);
  Alcotest.(check (option (float 1e-9))) "int as float" (Some 3.0)
    (get "a" Json.to_float_opt);
  Alcotest.(check (option int)) "absent" None (get "zzz" Json.to_int_opt)

(* --- Metrics --- *)

(* A wall-clock span of [seconds], recorded as the producers record it. *)
let wall_span ?args s ~seconds name =
  Timing.record_span ?args ~ts:0.0 (Some s) name ~seconds

let sim_run s ~cycles ~committed ~invocations =
  Sink.span s ~cat:"sim" ~ts:0.0 ~dur:(float_of_int cycles)
    ~args:
      [
        ("committed", Json.Int committed);
        ("accel_invocations", Json.Int invocations);
      ]
    "sim.run"

(* [count], [sum] and the cumulative (bound, count) buckets of one
   histogram, read back from the JSON view. *)
let histogram m name =
  let get k j = Option.bind j (Json.member k) in
  let h = Some (Metrics.to_json m) |> get "histograms" |> get name in
  let num k conv = Option.bind (get k h) conv in
  let buckets =
    match get "buckets" h with
    | Some (Json.List bs) ->
        List.filter_map
          (fun b ->
            match (Json.member "le" b, Json.member "count" b) with
            | Some (Json.Float le), Some (Json.Int n) -> Some (le, n)
            | _ -> None)
          bs
    | _ -> []
  in
  (num "count" Json.to_int_opt, num "sum" Json.to_float_opt, buckets)

let test_counter () =
  let s = Sink.create () in
  wall_span s ~seconds:0.1 "x";
  wall_span s ~seconds:0.2 "x";
  sim_run s ~cycles:100 ~committed:70 ~invocations:3;
  sim_run s ~cycles:50 ~committed:40 ~invocations:0;
  (* neither is a wall-clock span: no [x.calls] from them *)
  Sink.instant s ~pid:Sink.track_wall ~ts:0.0 "x";
  Sink.span s ~ts:0.0 ~dur:5.0 "x";
  let m = Metrics.of_sink s in
  Alcotest.(check int) "calls" 2 (Metrics.counter_value m "x.calls");
  Alcotest.(check int) "sim.runs" 2 (Metrics.counter_value m "sim.runs");
  Alcotest.(check int) "sim.cycles" 150 (Metrics.counter_value m "sim.cycles");
  Alcotest.(check int) "sim.committed" 110
    (Metrics.counter_value m "sim.committed");
  Alcotest.(check int) "sim.accel_invocations" 3
    (Metrics.counter_value m "sim.accel_invocations");
  Alcotest.(check int) "absent counter_value" 0 (Metrics.counter_value m "y");
  (* the view is a sum: event order does not matter *)
  let json m = Json.to_string (Metrics.to_json m) in
  Alcotest.(check string) "order-free" (json m)
    (json (Metrics.of_events (List.rev (Sink.events s))))

let test_histogram () =
  let s = Sink.create () in
  List.iter
    (fun seconds -> wall_span s ~seconds "h")
    [ 0.3; 1.5; 1.7; 4.0; 1e4 ];
  match histogram (Metrics.of_sink s) "h.seconds" with
  | Some count, Some sum, buckets ->
      Alcotest.(check int) "count" 5 count;
      Alcotest.(check (float 1e-6)) "sum" 10007.5 sum;
      Alcotest.(check int) "30 ladder buckets + overflow" 31
        (List.length buckets);
      let le bound = List.assoc bound buckets in
      Alcotest.(check int) "le 0.5" 1 (le 0.5);
      Alcotest.(check int) "le 2 (cumulative)" 3 (le 2.0);
      Alcotest.(check int) "le 5" 4 (le 5.0);
      (match List.rev buckets with
      | (binf, cinf) :: _ ->
          Alcotest.(check bool) "overflow bound" true (binf = Float.infinity);
          Alcotest.(check int) "overflow cumulative" 5 cinf
      | [] -> Alcotest.fail "no buckets")
  | _ -> Alcotest.fail "no h.seconds histogram"

let test_metrics_to_json () =
  let s = Sink.create () in
  wall_span s ~seconds:1.0 "b";
  wall_span s ~seconds:1.0 "a";
  let j = Metrics.to_json (Metrics.of_sink s) in
  (match j with
  | Json.Obj kvs ->
      Alcotest.(check (list string)) "top-level keys"
        [ "counters"; "histograms" ] (List.map fst kvs)
  | _ -> Alcotest.fail "not an object");
  match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
      Alcotest.(check (list string)) "sorted names" [ "a.calls"; "b.calls" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "no counters object"

(* --- Sink + Exporter --- *)

let test_sink_events () =
  let s = Sink.create () in
  Sink.counter s ~ts:10.0 "c" [ ("a", 1.0); ("b", 2.0) ];
  Sink.span s ~ts:5.0 ~dur:(-3.0) "neg";
  Sink.instant s ~ts:7.0 "i";
  Alcotest.(check int) "length" 3 (Sink.length s);
  (match Sink.events s with
  | [ c; x; i ] ->
      Alcotest.(check char) "counter phase" 'C' c.Sink.ph;
      Alcotest.(check char) "span phase" 'X' x.Sink.ph;
      Alcotest.(check (float 0.0)) "negative dur clamped" 0.0 x.Sink.dur;
      Alcotest.(check char) "instant phase" 'i' i.Sink.ph
  | _ -> Alcotest.fail "wrong event count");
  Sink.clear s;
  Alcotest.(check int) "cleared" 0 (Sink.length s)

(* Schema check applied to every event of a Chrome trace. Returns the
   number of data events; 'M' lane-name metadata (synthesized by the
   exporter for Perfetto) is validated but not counted. *)
let check_trace_schema j =
  match Json.member "traceEvents" j with
  | Some (Json.List events) ->
      let data = ref 0 in
      List.iter
        (fun ev ->
          let str k = Option.bind (Json.member k ev) Json.to_string_opt in
          let num k = Option.bind (Json.member k ev) Json.to_float_opt in
          (match str "name" with
          | Some _ -> ()
          | None -> Alcotest.fail "event without name");
          (match Option.bind (Json.member "pid" ev) Json.to_int_opt with
          | Some _ -> ()
          | None -> Alcotest.fail "event without pid");
          match str "ph" with
          | Some "M" -> ()
          | Some ("C" | "X" | "i") -> (
              incr data;
              (match num "ts" with
              | Some _ -> ()
              | None -> Alcotest.fail "event without ts");
              match str "ph" with
              | Some "X" -> (
                  match num "dur" with
                  | Some d when d >= 0.0 -> ()
                  | _ -> Alcotest.fail "X event without dur")
              | _ -> ())
          | Some ph -> Alcotest.failf "unknown phase %s" ph
          | None -> Alcotest.fail "event without ph")
        events;
      !data
  | _ -> Alcotest.fail "no traceEvents array"

let chrome_reparse s =
  match Json.parse (Json.to_string (Exporter.chrome_trace_json s)) with
  | Ok j -> j
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)

let test_exporter_schema () =
  let s = Sink.create () in
  Sink.counter s ~ts:0.0 "sim.stalls" [ ("rob", 1.0) ];
  Sink.span s ~ts:1.0 ~dur:4.0 "accel.invoke";
  Sink.instant s ~ts:2.0 "flush.mispredict";
  let j = chrome_reparse s in
  Alcotest.(check int) "all events exported" 3 (check_trace_schema j)

let test_exporter_files () =
  let s = Sink.create () in
  wall_span s ~seconds:1.0 "sp";
  let dir = Filename.temp_file "tca_telemetry" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let trace_path = Filename.concat dir "t.trace.json" in
  let metrics_path = Filename.concat dir "t.metrics.json" in
  let ok = function
    | Ok () -> ()
    | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      ok (Exporter.write_chrome_trace s trace_path);
      (match Report.of_file trace_path with
      | Ok rep -> Alcotest.(check int) "report events" 1 rep.Report.events
      | Error d -> Alcotest.fail (Tca_util.Diag.to_string d));
      (* written twice: the second write replaces the first *)
      ok (Exporter.write_metrics_json s metrics_path);
      ok (Exporter.write_metrics_json s metrics_path);
      let text = In_channel.with_open_bin metrics_path In_channel.input_all in
      (match Json.parse text with
      | Ok j ->
          Alcotest.(check (option int)) "counter from the span" (Some 1)
            (Option.bind (Json.member "counters" j) (fun c ->
                 Option.bind (Json.member "sp.calls" c) Json.to_int_opt))
      | Error d -> Alcotest.fail (Tca_util.Diag.to_string d));
      Alcotest.(check (list string)) "no temp file left"
        [ "t.metrics.json"; "t.trace.json" ]
        (List.sort compare (Array.to_list (Sys.readdir dir))))

let test_exporter_bad_path () =
  match Exporter.write_chrome_trace (Sink.create ()) "/nonexistent/dir/x.json" with
  | Error (Tca_util.Diag.Invalid _) -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok () -> Alcotest.fail "wrote through a missing directory"

(* --- Timing --- *)

let test_timing_span () =
  let s = Sink.create () in
  let out = Timing.with_span (Some s) "work" (fun () -> 42) in
  Alcotest.(check int) "thunk result" 42 out;
  Alcotest.(check int) "none is free" 7
    (Timing.with_span None "work" (fun () -> 7));
  (match Sink.events s with
  | [ ev ] ->
      Alcotest.(check char) "span" 'X' ev.Sink.ph;
      Alcotest.(check int) "wall track" Sink.track_wall ev.Sink.pid;
      Alcotest.(check bool) "non-negative dur" true (ev.Sink.dur >= 0.0)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check int) "calls counter" 1
    (Metrics.counter_value (Metrics.of_sink s) "work.calls")

(* --- Simulator reconciliation --- *)

let sim_pair () =
  Tca_workloads.Synthetic.generate
    (Tca_workloads.Synthetic.config ~n_units:400 ~n_chunks:25
       ~accel_latency:12 ())

let run_with_sink trace =
  let sink = Sink.create () in
  let cfg = Tca_uarch.Config.hp () in
  let stats = Tca_uarch.Pipeline.run_exn ~telemetry:sink cfg trace in
  (stats, sink)

(* Sum one series of a multi-series counter across the whole trace. *)
let counter_sum sink name series =
  List.fold_left
    (fun acc ev ->
      if ev.Sink.name = name && ev.Sink.ph = 'C' then
        match
          Option.bind
            (Json.member series (Json.Obj ev.Sink.args))
            Json.to_float_opt
        with
        | Some v -> acc +. v
        | None -> acc
      else acc)
    0.0 (Sink.events sink)

let test_stall_deltas_reconcile () =
  let pair = sim_pair () in
  let stats, sink =
    run_with_sink pair.Tca_workloads.Meta.accelerated
  in
  let st = stats.Tca_uarch.Sim_stats.stalls in
  let check series expected =
    Alcotest.(check (float 0.0))
      (series ^ " deltas sum exactly")
      (float_of_int expected)
      (counter_sum sink "sim.stalls" series)
  in
  check "rob" st.Tca_uarch.Sim_stats.rob_full;
  check "iq" st.Tca_uarch.Sim_stats.iq_full;
  check "lsq" st.Tca_uarch.Sim_stats.lsq_full;
  check "serialize" st.Tca_uarch.Sim_stats.serialize;
  check "redirect" st.Tca_uarch.Sim_stats.redirect;
  check "drained" st.Tca_uarch.Sim_stats.drained;
  Alcotest.(check (float 0.0)) "committed deltas sum exactly"
    (float_of_int stats.Tca_uarch.Sim_stats.committed)
    (counter_sum sink "sim.pipeline" "committed")

(* The per-interval counters flush every [Sink.interval] = 256 cycles,
   plus the final partial interval when the run ends. *)
let test_interval_period () =
  let pair = sim_pair () in
  let stats, sink = run_with_sink pair.Tca_workloads.Meta.accelerated in
  let ts =
    List.filter_map
      (fun ev ->
        if ev.Sink.name = "sim.pipeline" && ev.Sink.ph = 'C' then
          Some (int_of_float ev.Sink.ts)
        else None)
      (Sink.events sink)
  in
  let cycles = stats.Tca_uarch.Sim_stats.cycles in
  Alcotest.(check int) "period" 256 (Sink.interval sink);
  Alcotest.(check int) "one flush per started interval"
    ((cycles + 255) / 256) (List.length ts);
  List.iteri
    (fun i t ->
      Alcotest.(check int) "flush cycle" (Stdlib.min cycles ((i + 1) * 256)) t)
    ts

let test_registry_reconciles () =
  let pair = sim_pair () in
  let stats, sink = run_with_sink pair.Tca_workloads.Meta.accelerated in
  let registry = Metrics.of_sink sink in
  Alcotest.(check int) "sim.runs" 1 (Metrics.counter_value registry "sim.runs");
  Alcotest.(check int) "sim.cycles" stats.Tca_uarch.Sim_stats.cycles
    (Metrics.counter_value registry "sim.cycles");
  Alcotest.(check int) "sim.committed" stats.Tca_uarch.Sim_stats.committed
    (Metrics.counter_value registry "sim.committed");
  Alcotest.(check int) "sim.accel_invocations"
    stats.Tca_uarch.Sim_stats.accel_invocations
    (Metrics.counter_value registry "sim.accel_invocations");
  let invoke_spans =
    List.length
      (List.filter
         (fun ev -> ev.Sink.name = "accel.invoke" && ev.Sink.ph = 'X')
         (Sink.events sink))
  in
  Alcotest.(check int) "one span per invocation"
    stats.Tca_uarch.Sim_stats.accel_invocations invoke_spans

let test_telemetry_is_pure_observation () =
  let pair = sim_pair () in
  let cfg = Tca_uarch.Config.hp () in
  let run ?telemetry trace = Tca_uarch.Pipeline.run_exn ?telemetry cfg trace in
  List.iter
    (fun trace ->
      let plain = run trace in
      let sink = Sink.create () in
      let traced = run ~telemetry:sink trace in
      Alcotest.(check bool) "bit-identical stats" true (plain = traced))
    [ pair.Tca_workloads.Meta.baseline; pair.Tca_workloads.Meta.accelerated ]

let test_trace_schema_from_sim () =
  let pair = sim_pair () in
  let _, sink = run_with_sink pair.Tca_workloads.Meta.accelerated in
  let j = chrome_reparse sink in
  let n = check_trace_schema j in
  Alcotest.(check bool) "instrumented run produced events" true (n > 0)

(* --- Report --- *)

let test_report_from_sim () =
  let pair = sim_pair () in
  let stats, sink = run_with_sink pair.Tca_workloads.Meta.accelerated in
  Timing.with_span (Some sink) "sweep" (fun () -> ());
  match Report.of_json (Exporter.chrome_trace_json sink) with
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok rep ->
      let st = stats.Tca_uarch.Sim_stats.stalls in
      let total =
        List.fold_left (fun a (_, v) -> a +. v) 0.0 rep.Report.stall_totals
      in
      Alcotest.(check (float 0.0)) "report stall total"
        (float_of_int (Tca_uarch.Sim_stats.total_stalls st))
        total;
      Alcotest.(check int) "accel spans"
        stats.Tca_uarch.Sim_stats.accel_invocations
        rep.Report.accel_spans;
      Alcotest.(check bool) "has intervals" true
        (rep.Report.intervals <> []);
      Alcotest.(check bool) "cycle extent" true
        (rep.Report.cycles >= float_of_int stats.Tca_uarch.Sim_stats.cycles);
      (match rep.Report.wall_spans with
      | [ ("sweep", 1, _) ] -> ()
      | _ -> Alcotest.fail "wall span missing");
      (* The pretty-printer must render any well-formed report. *)
      let rendered = Format.asprintf "%a" Report.pp rep in
      Alcotest.(check bool) "renders" true (String.length rendered > 0)

(* A validation sweep records many simulator runs into one trace, each
   starting at cycle 0: the stall and occupancy shares are taken of the
   summed run lengths, not of the longest run. Two runs of 100 and 80
   cycles, each 75% stalled and 75% accelerator-busy. *)
let test_report_multi_run_shares () =
  let sink = Sink.create () in
  List.iter
    (fun dur ->
      Sink.span sink ~cat:"sim" ~ts:0.0 ~dur "sim.run";
      Sink.counter sink ~cat:"sim" ~ts:dur "sim.stalls"
        [ ("rob", 0.75 *. dur) ];
      Sink.span sink ~cat:"sim" ~ts:0.0 ~dur:(0.75 *. dur) "accel.invoke")
    [ 100.0; 80.0 ];
  match Report.of_json (Exporter.chrome_trace_json sink) with
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok rep ->
      let lines =
        String.split_on_char '\n' (Format.asprintf "%a" Report.pp rep)
      in
      (* The percentage on the rendered line starting with [prefix]. *)
      let share prefix =
        match List.find_opt (String.starts_with ~prefix) lines with
        | None -> Alcotest.failf "no %S line rendered" prefix
        | Some line ->
            let stop = String.index line '%' in
            let rec start i =
              if String.contains "0123456789." line.[i - 1] then start (i - 1)
              else i
            in
            let i = start stop in
            float_of_string (String.sub line i (stop - i))
      in
      List.iter
        (fun prefix ->
          let pct = share prefix in
          Alcotest.(check bool)
            (Printf.sprintf "%s %.1f%% <= 100%%" prefix pct)
            true (pct <= 100.0);
          Alcotest.(check (float 0.05)) prefix 75.0 pct)
        [ "top stall sources"; "accelerator:" ];
      Alcotest.(check string) "run count"
        "trace: 6 events over 100 cycles (2 sim runs, 180 simulated cycles)"
        (List.hd lines)

let test_report_degrades () =
  match Report.of_json (Json.List []) with
  | Ok rep ->
      Alcotest.(check int) "empty trace" 0 rep.Report.events;
      Alcotest.(check int) "no intervals" 0 (List.length rep.Report.intervals)
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)

let test_report_rejects_garbage () =
  match Report.of_json (Json.String "nope") with
  | Error (Tca_util.Diag.Invalid _) -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "accepted a non-trace"

(* --- fork/join: the multi-domain sink protocol --- *)

(* The emission each "task" would perform, whether into a shared serial
   sink or its own forked child: its [sim.run] span feeds the metrics. *)
let emit_task sink i =
  Sink.instant sink ~ts:(float_of_int i) (Printf.sprintf "task.%d" i);
  Sink.counter sink ~ts:(float_of_int i) "load"
    [ ("value", float_of_int (i * i)) ];
  sim_run sink ~cycles:(10 * i) ~committed:i ~invocations:0

let metrics_json s = Json.to_string (Metrics.to_json (Metrics.of_sink s))

let event_shape (e : Sink.event) =
  (e.Sink.name, e.Sink.cat, e.Sink.ph, e.Sink.ts, e.Sink.pid)

let test_fork_join_equals_serial () =
  let n = 8 in
  (* serial reference: every task emits into one sink, in order *)
  let serial = Sink.create () in
  for i = 0 to n - 1 do
    emit_task serial i
  done;
  (* fork/join: one child per task, emitted out of order (reverse),
     joined back in task-index order *)
  let parent = Sink.create () in
  let children = Array.init n (fun _ -> Sink.fork parent) in
  for i = n - 1 downto 0 do
    emit_task children.(i) i
  done;
  Array.iter (fun child -> Sink.join ~into:parent child) children;
  Alcotest.(check bool) "event sequences identical" true
    (List.map event_shape (Sink.events serial)
    = List.map event_shape (Sink.events parent));
  Alcotest.(check string) "metrics equal serial totals" (metrics_json serial)
    (metrics_json parent)

(* [Timing.fan_out] over the serial map and a 3-worker pool, with and
   without a sink: the same results either way, and the joined events
   are the serial reference's followed by one [telemetry.join] span. *)
let test_fan_out_equals_serial () =
  let xs = Array.init 8 Fun.id in
  let expected = Array.map (fun i -> i * i) xs in
  let reference = Sink.create () in
  Array.iter (emit_task reference) xs;
  (* a wall-clock span's timestamp is the one field that varies *)
  let shape (e : Sink.event) =
    event_shape
      (if e.Sink.pid = Sink.track_wall then { e with Sink.ts = 0.0 } else e)
  in
  let expected_shapes =
    List.map shape (Sink.events reference)
    @ [ ("telemetry.join", "wall", 'X', 0.0, Sink.track_wall) ]
  in
  (* the join span adds its own counter and histogram *)
  let task_metrics s =
    Metrics.of_events
      (List.filter (fun e -> e.Sink.name <> "telemetry.join") (Sink.events s))
    |> Metrics.to_json |> Json.to_string
  in
  Tca_engine.Pool.with_pool ~workers:3 @@ fun pool ->
  List.iter
    (fun (label, par) ->
      let untraced =
        Timing.fan_out ~par
          (fun ~telemetry i -> (Option.is_none telemetry, i * i))
          xs
      in
      Alcotest.(check bool) (label ^ ": no sink when telemetry is off") true
        (Array.for_all fst untraced);
      Alcotest.(check (array int)) (label ^ ": untraced results") expected
        (Array.map snd untraced);
      let parent = Sink.create () in
      let traced =
        Timing.fan_out ~telemetry:parent ~par
          (fun ~telemetry i ->
            Option.iter (fun s -> emit_task s i) telemetry;
            i * i)
          xs
      in
      Alcotest.(check (array int)) (label ^ ": traced results") expected traced;
      Alcotest.(check bool) (label ^ ": joined events = serial + join span")
        true
        (List.map shape (Sink.events parent) = expected_shapes);
      Alcotest.(check string) (label ^ ": metrics equal serial totals")
        (metrics_json reference) (task_metrics parent))
    [ ("serial", Tca_util.Parmap.serial); ("pool", Tca_engine.Pool.parmap pool) ]

let test_fork_carries_capabilities () =
  let parent = Sink.create () in
  Sink.instant parent ~ts:0.0 "before";
  let child = Sink.fork parent in
  Alcotest.(check int) "events not inherited" 0 (Sink.length child)

let test_join_empty_child () =
  (* joining a child that recorded nothing must not disturb the parent *)
  let parent = Sink.create () in
  Sink.instant parent ~ts:1.0 "before";
  let child = Sink.fork parent in
  Sink.join ~into:parent child;
  Alcotest.(check int) "no events added" 1 (Sink.length parent)

(* --- Timing: the monotonic clock --- *)

let test_timing_monotonic () =
  (* CLOCK_MONOTONIC cannot step backwards: consecutive readings are
     non-decreasing and every recorded span has a non-negative
     duration (the regression this pins: gettimeofday-based spans went
     negative under NTP steps). *)
  let prev = ref (Timing.now_us ()) in
  for _ = 1 to 10_000 do
    let t = Timing.now_us () in
    Alcotest.(check bool) "now_us non-decreasing" true (t >= !prev);
    prev := t
  done;
  let s = Sink.create () in
  for _ = 1 to 100 do
    Timing.with_span (Some s) "tick" (fun () -> ())
  done;
  List.iter
    (fun (e : Sink.event) ->
      Alcotest.(check bool) "span dur >= 0" true (e.Sink.dur >= 0.0))
    (Sink.events s)

let test_record_span_explicit_ts () =
  let s = Sink.create () in
  Timing.record_span ~ts:123.0 (Some s) "ext" ~seconds:0.5;
  Timing.record_span (Some s) "neg" ~seconds:(-1.0);
  match Sink.events s with
  | [ ext; neg ] ->
      Alcotest.(check (float 0.0)) "explicit ts honored" 123.0 ext.Sink.ts;
      Alcotest.(check (float 0.0)) "dur in us" 500_000.0 ext.Sink.dur;
      Alcotest.(check (float 0.0)) "negative seconds clamped" 0.0 neg.Sink.dur
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* --- Profiler --- *)

(* A hand-built two-lane trace with exact nesting, in microseconds:

   lane 0 (owner):
     profile.total   [0, 1000)
       cache.lookup  [0, 100)
       sched.batch   [100, 800)
         task.run    [110, 710)
           sim.step    [120, 420)
           sim.decode  [430, 530)
       cache.store     [800, 900)
       telemetry.merge [900, 950)
   lane 1 (worker):
     task.run [200, 500)
       sim.step [210, 410) *)
let profiler_fixture () =
  let s = Sink.create () in
  let sp ~tid ~ts ~dur name =
    Sink.span s ~pid:Sink.track_wall ~tid ~ts ~dur name
  in
  (* emitted deliberately out of order: the profiler must sort *)
  sp ~tid:0 ~ts:900.0 ~dur:50.0 "telemetry.merge";
  sp ~tid:1 ~ts:210.0 ~dur:200.0 "sim.step";
  sp ~tid:0 ~ts:0.0 ~dur:1000.0 Profiler.total_span_name;
  sp ~tid:0 ~ts:120.0 ~dur:300.0 "sim.step";
  sp ~tid:0 ~ts:110.0 ~dur:600.0 "task.run";
  sp ~tid:0 ~ts:0.0 ~dur:100.0 "cache.lookup";
  sp ~tid:1 ~ts:200.0 ~dur:300.0 "task.run";
  sp ~tid:0 ~ts:430.0 ~dur:100.0 "sim.decode";
  sp ~tid:0 ~ts:100.0 ~dur:700.0 "sched.batch";
  sp ~tid:0 ~ts:800.0 ~dur:100.0 "cache.store";
  s

let test_profiler_attribution () =
  let p = Profiler.of_sink (profiler_fixture ()) in
  Alcotest.(check (float 1e-12)) "wall from total span" 0.001
    p.Profiler.wall_s;
  Alcotest.(check int) "owner lane" 0 p.Profiler.owner_tid;
  (* cpu = toplevel busy per lane: 1000us owner + 300us worker *)
  Alcotest.(check (float 1e-12)) "cpu sums lanes" 0.0013 p.Profiler.cpu_s;
  let comp name = List.assoc name p.Profiler.components in
  (* owner-lane self times, by construction of the fixture *)
  Alcotest.(check (float 1e-12)) "decode" 100e-6 (comp "decode");
  Alcotest.(check (float 1e-12)) "sim" 300e-6 (comp "sim");
  Alcotest.(check (float 1e-12)) "fork_join" 50e-6 (comp "fork_join");
  Alcotest.(check (float 1e-12)) "cache" 200e-6 (comp "cache");
  (* sched.batch minus its task.run child *)
  Alcotest.(check (float 1e-12)) "scheduler" 100e-6 (comp "scheduler");
  (* total's 50us of glue + task.run's 200us of body compute *)
  Alcotest.(check (float 1e-12)) "other" 250e-6 (comp "other");
  (* the six buckets cover the whole total span: 100% attributed *)
  Alcotest.(check (float 1e-9)) "everything attributed" 1.0
    (Profiler.attributed_fraction p);
  (match List.find_opt (fun l -> l.Profiler.tid = 1) p.Profiler.lanes with
  | Some l ->
      Alcotest.(check (float 1e-12)) "worker busy" 300e-6 l.Profiler.busy_s;
      Alcotest.(check int) "worker tasks" 1 l.Profiler.tasks
  | None -> Alcotest.fail "worker lane missing");
  (* self-time rows fold both lanes: two task.run calls *)
  match
    List.find_opt (fun r -> r.Profiler.name = "task.run") p.Profiler.rows
  with
  | Some r ->
      Alcotest.(check int) "task.run calls" 2 r.Profiler.calls;
      Alcotest.(check (float 1e-12)) "task.run total" 900e-6
        r.Profiler.total_s;
      Alcotest.(check (float 1e-12)) "task.run self" 300e-6 r.Profiler.self_s
  | None -> Alcotest.fail "task.run row missing"

let test_profiler_deterministic () =
  (* For a fixed event set the rendered report is byte-identical, even
     when the events arrive in a different order: all sorts in the
     profiler carry total tie-breaks. *)
  let render events =
    Json.to_string_indent (Profiler.to_json (Profiler.of_events events))
  in
  let events = Sink.events (profiler_fixture ()) in
  let a = render events in
  Alcotest.(check string) "same order" a (render events);
  Alcotest.(check string) "reversed order" a (render (List.rev events));
  let table = render (List.sort compare events) in
  Alcotest.(check string) "sorted order" a table;
  (* the text table is deterministic too *)
  let pp events =
    Format.asprintf "%a" Profiler.pp (Profiler.of_events events)
  in
  Alcotest.(check string) "pp deterministic" (pp events)
    (pp (List.rev events))

let test_profiler_degrades () =
  (* no events at all: an empty, well-formed report *)
  let empty = Profiler.of_events [] in
  Alcotest.(check (float 0.0)) "no wall" 0.0 empty.Profiler.wall_s;
  Alcotest.(check int) "no lanes" 0 (List.length empty.Profiler.lanes);
  Alcotest.(check (float 1e-9)) "vacuously attributed" 1.0
    (Profiler.attributed_fraction empty);
  (* without a profile.total span, wall falls back to the event extent
     and the first lane becomes the owner *)
  let s = Sink.create () in
  Sink.span s ~pid:Sink.track_wall ~tid:3 ~ts:100.0 ~dur:400.0 "sim.step";
  let p = Profiler.of_sink s in
  Alcotest.(check (float 1e-12)) "extent wall" 400e-6 p.Profiler.wall_s;
  Alcotest.(check int) "sole lane owns" 3 p.Profiler.owner_tid;
  (* sim-track events (pid 0) are not wall spans and must be ignored *)
  Sink.counter s ~ts:0.0 "sim.stalls" [ ("rob", 1.0) ];
  Sink.span s ~pid:Sink.track_sim ~ts:0.0 ~dur:99.0 "accel.invoke";
  let p' = Profiler.of_sink s in
  Alcotest.(check (float 1e-12)) "sim track ignored" 400e-6 p'.Profiler.wall_s

let test_profiler_gc_counters () =
  let s = Sink.create () in
  Sink.span s ~pid:Sink.track_wall ~tid:0 ~ts:0.0 ~dur:10.0
    Profiler.total_span_name;
  Alcotest.(check (list (pair string int))) "no task.run, no gc table" []
    (Profiler.of_sink s).Profiler.gc;
  List.iter
    (fun (minor, major) ->
      wall_span s ~seconds:1e-6
        ~args:
          [
            ("gc_minor_words", Json.Int minor);
            ("gc_major_collections", Json.Int major);
          ]
        "task.run")
    [ (1000, 2); (234, 0) ];
  let p = Profiler.of_sink s in
  Alcotest.(check (option int)) "minor words" (Some 1234)
    (List.assoc_opt "minor_words" p.Profiler.gc);
  Alcotest.(check (option int)) "major collections" (Some 2)
    (List.assoc_opt "major_collections" p.Profiler.gc);
  Alcotest.(check (option int)) "absent key reports 0" (Some 0)
    (List.assoc_opt "promoted_words" p.Profiler.gc)

(* --- Sim_stats satellite APIs --- *)

let test_sim_stats_json_csv () =
  let pair = sim_pair () in
  let stats, _ = run_with_sink pair.Tca_workloads.Meta.accelerated in
  let j = Tca_uarch.Sim_stats.to_json stats in
  Alcotest.(check (option int)) "cycles field"
    (Some stats.Tca_uarch.Sim_stats.cycles)
    (Option.bind (Json.member "cycles" j) Json.to_int_opt);
  match Json.parse (Json.to_string j) with
  | Ok _ -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)

let test_speedup_result () =
  let pair = sim_pair () in
  let stats, _ = run_with_sink pair.Tca_workloads.Meta.accelerated in
  (match Tca_uarch.Sim_stats.speedup ~baseline:stats ~accelerated:stats with
  | Ok s -> Alcotest.(check (float 1e-9)) "self speedup" 1.0 s
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d));
  let zero =
    { stats with Tca_uarch.Sim_stats.cycles = 0 }
  in
  match Tca_uarch.Sim_stats.speedup ~baseline:stats ~accelerated:zero with
  | Error (Tca_util.Diag.Invalid _) -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "zero-cycle speedup accepted"

let () =
  Alcotest.run "tca_telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "indent roundtrip" `Quick
            test_json_indent_roundtrip;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
        ] );
      ( "sink",
        [
          Alcotest.test_case "events" `Quick test_sink_events;
          Alcotest.test_case "exporter schema" `Quick test_exporter_schema;
          Alcotest.test_case "exporter files" `Quick test_exporter_files;
          Alcotest.test_case "bad path" `Quick test_exporter_bad_path;
          Alcotest.test_case "timing span" `Quick test_timing_span;
          Alcotest.test_case "fork/join equals serial" `Quick
            test_fork_join_equals_serial;
          Alcotest.test_case "fan_out equals serial" `Quick
            test_fan_out_equals_serial;
          Alcotest.test_case "fork carries capabilities" `Quick
            test_fork_carries_capabilities;
          Alcotest.test_case "join empty child" `Quick test_join_empty_child;
        ] );
      ( "timing",
        [
          Alcotest.test_case "monotonic" `Quick test_timing_monotonic;
          Alcotest.test_case "record_span explicit ts" `Quick
            test_record_span_explicit_ts;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "attribution" `Quick test_profiler_attribution;
          Alcotest.test_case "deterministic" `Quick test_profiler_deterministic;
          Alcotest.test_case "degrades" `Quick test_profiler_degrades;
          Alcotest.test_case "gc counters" `Quick test_profiler_gc_counters;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "stall deltas reconcile" `Quick
            test_stall_deltas_reconcile;
          Alcotest.test_case "interval period" `Quick test_interval_period;
          Alcotest.test_case "registry reconciles" `Quick
            test_registry_reconciles;
          Alcotest.test_case "pure observation" `Quick
            test_telemetry_is_pure_observation;
          Alcotest.test_case "trace schema" `Quick test_trace_schema_from_sim;
        ] );
      ( "report",
        [
          Alcotest.test_case "from sim" `Quick test_report_from_sim;
          Alcotest.test_case "multi-run shares" `Quick
            test_report_multi_run_shares;
          Alcotest.test_case "degrades" `Quick test_report_degrades;
          Alcotest.test_case "rejects garbage" `Quick
            test_report_rejects_garbage;
        ] );
      ( "sim_stats",
        [
          Alcotest.test_case "json + csv" `Quick test_sim_stats_json_csv;
          Alcotest.test_case "speedup result" `Quick test_speedup_result;
        ] );
    ]
