open Tca_uarch
open Tca_workloads

type row = {
  occupancy : string;
  mode : Tca_model.Mode.t;
  cycles : int;
  speedup : float;
}

let occupancy_name = function
  | Config.Pipelined -> "pipelined"
  | Config.Exclusive -> "exclusive"

let run ?telemetry ?(par = Tca_util.Parmap.serial) ?(n = 32) () =
  let pair = Dgemm_workload.pair (Dgemm_workload.config ~n ()) ~dim:4 in
  let base_cfg = Exp_common.validation_core () in
  let baseline = Pipeline.run_exn ?telemetry base_cfg pair.Meta.baseline in
  let combos =
    Array.of_list
      (List.concat_map
         (fun occupancy ->
           List.map (fun coupling -> (occupancy, coupling)) Config.all_couplings)
         [ Config.Pipelined; Config.Exclusive ])
  in
  let sinks =
    Array.map (fun _ -> Option.map Tca_telemetry.Sink.fork telemetry) combos
  in
  let eval i =
    let occupancy, coupling = combos.(i) in
    let cfg =
      {
        (Config.with_coupling base_cfg coupling) with
        Config.tca_occupancy = occupancy;
      }
    in
    let stats = Pipeline.run_exn ?telemetry:sinks.(i) cfg pair.Meta.accelerated in
    {
      occupancy = occupancy_name occupancy;
      mode = Exp_common.mode_of_coupling coupling;
      cycles = stats.Sim_stats.cycles;
      speedup = Sim_stats.speedup_exn ~baseline ~accelerated:stats;
    }
  in
  let rows =
    par.Tca_util.Parmap.run eval (Array.init (Array.length combos) Fun.id)
  in
  (match telemetry with
  | Some into ->
      Array.iter
        (function
          | Some child -> Tca_telemetry.Sink.join ~into child | None -> ())
        sinks
  | None -> ());
  Array.to_list rows

let artifact rows =
  let module A = Tca_engine.Artifact in
  A.make ~job:"occupancy"
    ~title:
      "X5: accelerator occupancy ablation (DGEMM 4x4 TCA): pipelined vs \
       exclusive unit"
    [
      A.Table
        (A.table ~name:"occupancy"
           ~headers:[ "unit"; "mode"; "cycles"; "speedup" ]
           (List.map
              (fun r ->
                [
                  A.text r.occupancy;
                  A.text (Tca_model.Mode.to_string r.mode);
                  A.int r.cycles;
                  A.flt r.speedup;
                ])
              rows));
      A.Note
        "(the policies differ only where trailing concurrency lets \
         invocations overlap — the NT modes serialise invocations anyway)";
    ]
