open Tca_workloads

let gaps ~quick = if quick then [ 300 ] else [ 1200; 600; 300; 150; 75 ]

let run ?telemetry ?(par = Tca_util.Parmap.serial) ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "strfn_val.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  let n_calls = if quick then 400 else 1200 in
  let gaps_a = Array.of_list (gaps ~quick) in
  let sinks =
    Array.map (fun _ -> Option.map Tca_telemetry.Sink.fork telemetry) gaps_a
  in
  let eval i =
    let gap = gaps_a.(i) in
    let scfg =
      Strfn_workload.config ~n_calls ~app_instrs_per_call:gap ~seed:(11 + gap)
        ()
    in
    let pair, bytes =
      Tca_telemetry.Timing.with_span sinks.(i) "sim.workload" (fun () ->
          Strfn_workload.generate scfg)
    in
    let latency = Exp_common.meta_latency pair.Meta.meta ~cfg in
    (Exp_common.validate_pair ?telemetry:sinks.(i) ~cfg ~pair ~latency (), bytes)
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
