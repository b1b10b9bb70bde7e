open Tca_model

type row = {
  p_speculate : float;
  speedup_t : float;
  speedup_nt : float;
}

let core = Presets.hp_core

let scenario =
  Params.scenario_exn ~a:0.35 ~v:(1.0 /. 150.0) ~accel:(Params.Latency 1.0) ()

let run ?(points = 11) () =
  let ps = Tca_util.Sweep.linspace_exn 0.0 1.0 points in
  Array.to_list
    (Array.map
       (fun p ->
         {
           p_speculate = p;
           speedup_t = Partial.speedup core scenario ~trailing:true ~p_speculate:p;
           speedup_nt =
             Partial.speedup core scenario ~trailing:false ~p_speculate:p;
         })
       ps)

let confidence_for_95pct () =
  let full = Equations.speedup_exn core scenario Mode.L_T in
  Partial.required_confidence core scenario ~trailing:true
    ~target_speedup:(0.95 *. full)

type sim_row = {
  p : float;
  sim_speedup : float;
  model_speedup : float;
}

let validate ?telemetry ?par ?(quick = false) () =
  let open Tca_uarch in
  let n_calls = if quick then 600 else 1500 in
  let pair =
    Tca_workloads.Heap_workload.generate
      (Tca_workloads.Heap_workload.config ~n_calls ~app_instrs_per_call:100
         ~seed:61 ())
  in
  let cfg =
    Config.with_coupling (Exp_common.validation_core ()) Config.coupling_l_t
  in
  let baseline = Pipeline.run_exn ?telemetry cfg pair.Tca_workloads.Meta.baseline in
  let ipc = baseline.Sim_stats.ipc in
  let model_core = Exp_common.model_core_of cfg ~ipc in
  let s =
    Exp_common.scenario_of_meta pair.Tca_workloads.Meta.meta ~latency:1.0
  in
  let eval ~telemetry p =
    let run_cfg = { cfg with Config.tca_speculate_fraction = Some p } in
    let stats =
      Pipeline.run_exn ?telemetry run_cfg
        pair.Tca_workloads.Meta.accelerated
    in
    {
      p;
      sim_speedup = Sim_stats.speedup_exn ~baseline ~accelerated:stats;
      model_speedup = Partial.speedup model_core s ~trailing:true ~p_speculate:p;
    }
  in
  Array.to_list
    (Tca_telemetry.Timing.fan_out ?telemetry ?par eval
       [| 0.0; 0.25; 0.5; 0.75; 1.0 |])

let monotone rows =
  let rec go = function
    | a :: (b :: _ as rest) -> a.sim_speedup <= b.sim_speedup +. 0.02 && go rest
    | _ -> true
  in
  go rows

let artifact ?telemetry ?par ?quick rows =
  let module A = Tca_engine.Artifact in
  let sim = validate ?telemetry ?par ?quick () in
  A.make ~job:"partial"
    ~title:
      "X2: partial speculation (heap scenario, HP core) — speedup vs \
       speculation coverage p"
    [
      A.Table
        (A.table ~name:"blend"
           ~headers:
             [ "p"; "trailing (L_T..NL_T)"; "no trailing (L_NT..NL_NT)" ]
           (List.map
              (fun r ->
                [
                  A.flt ~decimals:1 r.p_speculate;
                  A.flt r.speedup_t;
                  A.flt r.speedup_nt;
                ])
              rows));
      A.Note
        (match confidence_for_95pct () with
        | Some p ->
            Printf.sprintf
              "speculation coverage for 95%% of full L_T speedup: p = %.2f" p
        | None -> "95% of full L_T speedup unreachable by blending");
      A.Note
        "simulator cross-check (heap workload, per-invocation speculation \
         coin, trailing allowed):";
      A.Table
        (A.table ~name:"sim-crosscheck" ~headers:[ "p"; "sim"; "model"; "error" ]
           (List.map
              (fun r ->
                [
                  A.flt ~decimals:2 r.p;
                  A.flt r.sim_speedup;
                  A.flt r.model_speedup;
                  A.pct
                    (100.0
                    *. (r.model_speedup -. r.sim_speedup)
                    /. r.sim_speedup);
                ])
              sim));
      A.Note
        (Printf.sprintf "simulated speedup grows with speculation coverage: %b"
           (monotone sim));
    ]
