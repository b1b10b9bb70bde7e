open Tca_workloads

let gaps ~quick = if quick then [ 200 ] else [ 800; 400; 200; 100; 50 ]

let run ?telemetry ?(par = Tca_util.Parmap.serial) ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "hashmap_val.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let n_lookups = if quick then 500 else 1500 in
  let gaps_a = Array.of_list (gaps ~quick) in
  let sinks =
    Array.map (fun _ -> Option.map Tca_telemetry.Sink.fork telemetry) gaps_a
  in
  let eval i =
    let gap = gaps_a.(i) in
    let hcfg =
      Hashmap_workload.config ~n_lookups ~app_instrs_per_lookup:gap
        ~seed:(17 + gap) ()
    in
    let pair, probes =
      Tca_telemetry.Timing.with_span sinks.(i) "sim.workload" (fun () ->
          Hashmap_workload.generate hcfg)
    in
    let latency = Exp_common.meta_latency pair.Meta.meta ~cfg in
    (Exp_common.validate_pair ?telemetry:sinks.(i) ~cfg ~pair ~latency (), probes)
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

let artifact (rows, mean_probes) =
  Exp_common.validation_artifact ~job:"hashmap"
    ~title:
      "X7: hash-map TCA validation (probe counts from a live \
       open-addressing table)"
    ~notes:
      [
        Printf.sprintf
          "mean probes per lookup %.2f -> mean software cost %d uops (the \
           'hash map' marker granularity of Fig. 2)"
          mean_probes
          (Tca_hashmap.Cost_model.software_uops
             ~probes:(int_of_float (Float.round mean_probes)));
      ]
    rows
