(* verify-static: static analysis on freshly generated pairs. Each op
   generates one of the nine [tca verify all] pairs from the seed, then
   runs [Equiv.check], [Assume.audit] and [Analysis.analyze]; the
   pipeline never runs. Work unit: trace-pair instructions. *)

open Tca_analysis

let cfg = Inputs.cfg
let rob_size = cfg.Tca_uarch.Config.rob_size
let line_bytes = Inputs.line_bytes

let proved = ref 0

let verify ~seed name () =
  let e = Inputs.generate ~seed name in
  let pair = e.Inputs.pair in
  let baseline = pair.Tca_workloads.Meta.baseline.Tca_uarch.Trace.instrs in
  let accelerated = pair.Tca_workloads.Meta.accelerated.Tca_uarch.Trace.instrs in
  let report =
    Layers.time "analysis.equiv"
      ~work:(fun (r : Equiv.report) -> float_of_int (r.Equiv.n_base + r.Equiv.n_accel))
      (fun () -> Equiv.check ~line_bytes ~baseline ~accelerated ())
  in
  let audit =
    Layers.time "analysis.audit" (fun () ->
        Assume.audit ~line_bytes ~rob_size ~baseline ~accelerated ())
  in
  let analysis =
    Layers.time "analysis.analyze" (fun () ->
        Analysis.analyze ~baseline:pair.Tca_workloads.Meta.baseline ~cfg
          pair.Tca_workloads.Meta.accelerated)
  in
  if not (Equiv.equivalent report) then Error (name ^ ": not equivalent")
  else begin
    if Layers.tracing () then incr proved;
    let doc =
      Layers.time "analysis.report" (fun () ->
          String.concat "\n"
            (List.map Tca_util.Json.to_string
               [
                 Equiv.report_to_json report;
                 Assume.to_json audit;
                 Analysis.report_to_json analysis;
               ]))
    in
    Runner.ok
      (Digest.to_hex (Digest.string doc))
      (float_of_int (Array.length baseline + Array.length accelerated))
  end

let ops ~seed () =
  List.map
    (fun name -> { Runner.label = name; counted = true; run = verify ~seed name })
    Inputs.verify_names

let extras () =
  let attempted = (Layers.find "analysis.equiv").Layers.calls in
  [
    ( "analysis.proved_ratio",
      if attempted = 0 then 0. else float_of_int !proved /. float_of_int attempted );
  ]

(* Nothing is generated before the first op: set-up is resolving the
   machine parameters and the pair list the ops walk. *)
let setup () =
  ignore (Sys.opaque_identity (Tca_experiments.Exp_common.validation_core (), Inputs.verify_names))

let spec ~seed ~model_error =
  {
    Runner.setup;
    setup_reps = 200_000;
    ops = ops ~seed;
    pins = None;
    post = (fun () -> []);
    model_error = (fun () -> model_error ());
    extras;
  }
