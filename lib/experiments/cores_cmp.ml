open Tca_uarch
open Tca_workloads

type core_result = {
  core_name : string;
  base_ipc : float;
  mode_speedups : (Tca_model.Mode.t * float) list;
  spread : float;
}

let run ?telemetry ?par ?(quick = false) () =
  let n_calls = if quick then 800 else 2000 in
  let hcfg =
    Heap_workload.config ~n_calls ~app_instrs_per_call:100 ~seed:31 ()
  in
  let pair =
    Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
        Heap_workload.generate hcfg)
  in
  List.map
    (fun (core_name, cfg) ->
      let cmp =
        Tca_util.Diag.ok_exn
          (Simulator.compare_modes ?telemetry ?par ~cfg
             ~baseline:pair.Meta.baseline ~accelerated:pair.Meta.accelerated ())
      in
      let mode_speedups =
        List.map
          (fun (r : Simulator.mode_result) ->
            (Exp_common.mode_of_coupling r.Simulator.coupling, r.Simulator.speedup))
          cmp.Simulator.modes
      in
      let values = List.map snd mode_speedups in
      let best = List.fold_left Float.max (List.hd values) values in
      let worst = List.fold_left Float.min (List.hd values) values in
      {
        core_name;
        base_ipc = cmp.Simulator.baseline.Sim_stats.ipc;
        mode_speedups;
        spread = (best -. worst) /. worst;
      })
    [ ("HP", Config.hp ()); ("LP", Config.lp ()) ]

let hp_more_sensitive results =
  match results with
  | [ hp; lp ] -> hp.spread > lp.spread
  | _ -> false

let artifact results =
  let module A = Tca_engine.Artifact in
  A.make ~job:"cores"
    ~title:"X6: core sensitivity to TCA mode (heap workload, simulator-measured)"
    [
      A.Table
        (A.table ~name:"cores"
           ~headers:
             [ "core"; "base IPC"; "NL_NT"; "L_NT"; "NL_T"; "L_T"; "spread" ]
           (List.map
              (fun r ->
                A.text r.core_name
                :: A.flt ~decimals:2 r.base_ipc
                :: List.map
                     (fun m -> A.flt (List.assoc m r.mode_speedups))
                     Tca_model.Mode.all
                @ [ A.text (Tca_util.Table.pct_cell r.spread) ])
              results));
      A.Note
        (Printf.sprintf
           "paper observation 1 (HP cores more mode-sensitive) holds in the \
            simulator: %b"
           (hp_more_sensitive results));
    ]
