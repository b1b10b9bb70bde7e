open Tca_workloads

let gaps ~quick =
  if quick then [ 400; 100 ] else [ 1600; 800; 400; 200; 100; 50; 25 ]

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "fig5.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let n_calls = if quick then 600 else 2000 in
  Exp_common.par_rows ?telemetry ?par
    (fun ~telemetry gap ->
      let hcfg =
        Heap_workload.config ~n_calls ~app_instrs_per_call:gap ~seed:(7 + gap)
          ()
      in
      let pair =
        Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
            Heap_workload.generate hcfg)
      in
      Exp_common.validate_pair ?telemetry ~cfg ~pair
        ~latency:(float_of_int Tca_heap.Cost_model.accel_latency) ())
    (gaps ~quick)

let summary rows =
  Tca_model.Validate.summarize (Exp_common.points_of_rows rows)

let trends_hold rows =
  Tca_model.Validate.trends_preserved (Exp_common.points_of_rows rows)

let artifact rows =
  Exp_common.validation_artifact ~job:"fig5"
    ~title:
      "Fig. 5: heap-manager TCA — simulated (b) vs analytical (a) speedup \
       and error (c) across invocation frequencies"
    rows
