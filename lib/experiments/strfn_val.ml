open Tca_workloads

let gaps ~quick = if quick then [ 300 ] else [ 1200; 600; 300; 150; 75 ]

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "strfn_val.run" @@ fun () ->
  let n_calls = if quick then 400 else 1200 in
  let rows, bytes =
    Exp_common.validation_sweep ?telemetry ?par
      (fun gap ->
        Strfn_workload.generate
          (Strfn_workload.config ~n_calls ~app_instrs_per_call:gap
             ~seed:(11 + gap) ()))
      (gaps ~quick)
  in
  (rows, List.hd (List.rev bytes))

let artifact (rows, mean_bytes) =
  Exp_common.validation_artifact ~job:"strfn"
    ~title:
      "X9: string-function TCA validation (strlen/strcmp/find_char over a \
       real string arena)"
    ~notes:
      [
        Printf.sprintf
          "mean bytes inspected %.0f -> mean software cost ~%d uops (the \
           'string functions' marker granularity of Fig. 2)"
          mean_bytes
          (Tca_strfn.Cost_model.software_uops
             ~bytes_inspected:(int_of_float mean_bytes));
      ]
    rows
