open Tca_workloads

let gaps ~quick =
  if quick then [ 400; 100 ] else [ 1600; 800; 400; 200; 100; 50; 25 ]

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "fig5.run" @@ fun () ->
  let n_calls = if quick then 600 else 2000 in
  fst
    (Exp_common.validation_sweep ?telemetry ?par
       ~latency:(float_of_int Tca_heap.Cost_model.accel_latency)
       (fun gap ->
         ( Heap_workload.generate
             (Heap_workload.config ~n_calls ~app_instrs_per_call:gap
                ~seed:(7 + gap) ()),
           () ))
       (gaps ~quick))

let artifact rows =
  Exp_common.validation_artifact ~job:"fig5"
    ~title:
      "Fig. 5: heap-manager TCA — simulated (b) vs analytical (a) speedup \
       and error (c) across invocation frequencies"
    rows
