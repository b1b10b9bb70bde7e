open Tca_workloads

let gaps ~quick = if quick then [ 400 ] else [ 3200; 1600; 800; 400; 200 ]

let run ?telemetry ?(par = Tca_util.Parmap.serial) ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "regex_val.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let n_records = if quick then 120 else 400 in
  let gaps_a = Array.of_list (gaps ~quick) in
  let sinks =
    Array.map (fun _ -> Option.map Tca_telemetry.Sink.fork telemetry) gaps_a
  in
  let eval i =
    let gap = gaps_a.(i) in
    let rcfg =
      Regex_workload.config ~n_records ~app_instrs_per_record:gap
        ~seed:(23 + gap) ()
    in
    let pair, scan =
      Tca_telemetry.Timing.with_span sinks.(i) "sim.workload" (fun () ->
          Regex_workload.generate rcfg)
    in
    let latency = Exp_common.meta_latency pair.Meta.meta ~cfg in
    (Exp_common.validate_pair ?telemetry:sinks.(i) ~cfg ~pair ~latency (), scan)
  in
  let per_gap =
    par.Tca_util.Parmap.run eval (Array.init (Array.length gaps_a) Fun.id)
  in
  (match telemetry with
  | Some into ->
      Array.iter
        (function
          | Some child -> Tca_telemetry.Sink.join ~into child | None -> ())
        sinks
  | None -> ());
  let rows = List.concat_map fst (Array.to_list per_gap) in
  (rows, snd per_gap.(Array.length per_gap - 1))

let artifact (rows, mean_scan) =
  Exp_common.validation_artifact ~job:"regexv"
    ~title:
      "X8: regular-expression TCA validation (scan lengths from the real \
       NFA/DFA engine)"
    ~notes:
      [
        Printf.sprintf
          "mean scan %.0f chars -> mean software cost ~%d uops (the 'regular \
           expression' marker granularity of Fig. 2)"
          mean_scan
          (Tca_regex.Cost_model.software_uops
             ~chars_scanned:(int_of_float mean_scan));
      ]
    rows
