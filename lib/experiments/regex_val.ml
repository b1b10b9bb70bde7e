open Tca_workloads

let gaps ~quick = if quick then [ 400 ] else [ 3200; 1600; 800; 400; 200 ]

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "regex_val.run" @@ fun () ->
  let n_records = if quick then 120 else 400 in
  let rows, scans =
    Exp_common.validation_sweep ?telemetry ?par
      (fun gap ->
        Regex_workload.generate
          (Regex_workload.config ~n_records ~app_instrs_per_record:gap
             ~seed:(23 + gap) ()))
      (gaps ~quick)
  in
  (rows, List.hd (List.rev scans))

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
