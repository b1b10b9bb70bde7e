open Tca_workloads

let run ?telemetry ?par ?(n = 64) () =
  Tca_telemetry.Timing.with_span telemetry "fig6.run" @@ fun () ->
  let dcfg = Dgemm_workload.config ~n () in
  fst
    (Exp_common.validation_sweep ?telemetry ?par
       (fun dim -> (Dgemm_workload.pair dcfg ~dim, ()))
       Tca_dgemm.Mma.supported_dims)

let artifact rows =
  Exp_common.validation_artifact ~job:"fig6"
    ~title:
      "Fig. 6: blocked DGEMM acceleration, measured (sim) vs estimated \
       (model) speedup over the element-wise software kernel"
    rows
