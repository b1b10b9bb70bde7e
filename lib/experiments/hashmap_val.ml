open Tca_workloads

let gaps ~quick = if quick then [ 200 ] else [ 800; 400; 200; 100; 50 ]

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "hashmap_val.run" @@ fun () ->
  let n_lookups = if quick then 500 else 1500 in
  let rows, probes =
    Exp_common.validation_sweep ?telemetry ?par
      (fun gap ->
        Hashmap_workload.generate
          (Hashmap_workload.config ~n_lookups ~app_instrs_per_lookup:gap
             ~seed:(17 + gap) ()))
      (gaps ~quick)
  in
  (rows, List.hd (List.rev probes))

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
