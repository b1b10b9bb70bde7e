open Tca_workloads

let chunk_counts ~quick =
  if quick then [ 10; 50; 200 ] else [ 10; 25; 50; 100; 200; 400; 800 ]

let app_config =
  { Codegen.model_friendly_config with Codegen.dep_window = 6 }

let accel_latency = 20

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "fig4.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let n_units = if quick then 1200 else 4000 in
  Exp_common.par_rows ?telemetry ?par
    (fun ~telemetry n_chunks ->
      let scfg =
        Synthetic.config ~app:app_config ~n_units ~n_chunks ~accel_latency
          ~seed:(41 + n_chunks) ()
      in
      let pair =
        Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
            Synthetic.generate scfg)
      in
      Exp_common.validate_pair ?telemetry ~cfg ~pair
        ~latency:(float_of_int accel_latency) ())
    (List.filter (fun c -> c <= n_units) (chunk_counts ~quick))

let summary rows =
  Tca_model.Validate.summarize (Exp_common.points_of_rows rows)

let trends_hold rows =
  Tca_model.Validate.trends_preserved (Exp_common.points_of_rows rows)

let artifact rows =
  Exp_common.validation_artifact ~job:"fig4"
    ~title:"Fig. 4: model vs simulator on the synthetic microbenchmark sweep"
    rows
