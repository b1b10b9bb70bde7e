open Tca_workloads

let run ?telemetry ?par ?(n = 64) () =
  Tca_telemetry.Timing.with_span telemetry "fig6.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let dcfg = Dgemm_workload.config ~n () in
  Exp_common.par_rows ?telemetry ?par
    (fun ~telemetry dim ->
      let pair =
        Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
            Dgemm_workload.pair dcfg ~dim)
      in
      let latency = Exp_common.meta_latency pair.Meta.meta ~cfg in
      Exp_common.validate_pair ?telemetry ~cfg ~pair ~latency ())
    Tca_dgemm.Mma.supported_dims

let summary rows =
  Tca_model.Validate.summarize (Exp_common.points_of_rows rows)

let trends_hold rows =
  Tca_model.Validate.trends_preserved (Exp_common.points_of_rows rows)

let artifact rows =
  Exp_common.validation_artifact ~job:"fig6"
    ~title:
      "Fig. 6: blocked DGEMM acceleration, measured (sim) vs estimated \
       (model) speedup over the element-wise software kernel"
    rows
