open Tca_uarch
open Tca_workloads
module A = Tca_engine.Artifact

(* Per-unit architect's latency: the unit's own compute latency plus the
   pair's shared memory-time estimate (every scenario gives both units
   the same read footprint, so only the compute term differs). *)
let unit_latency (sc : Multi_tca.scenario) (u : Multi_tca.unit_usage) ~cfg =
  Exp_common.meta_latency
    { sc.Multi_tca.pair.Meta.meta with
      Meta.compute_latency = u.Multi_tca.compute_latency }
    ~cfg

let composition_of ?drain (sc : Multi_tca.scenario) ~cfg =
  let nb =
    float_of_int sc.Multi_tca.pair.Meta.meta.Meta.baseline_instrs
  in
  let units =
    List.map
      (fun (u : Multi_tca.unit_usage) ->
        Tca_model.Params.unit_scenario_exn
          ~a:(float_of_int u.Multi_tca.acceleratable_instrs /. nb)
          ~v:(float_of_int u.Multi_tca.invocations /. nb)
          ~accel:(Tca_model.Params.Latency (unit_latency sc u ~cfg))
          ())
      sc.Multi_tca.usage
  in
  Tca_model.Params.composition_exn ?drain
    ~chained:sc.Multi_tca.chained_fraction
    ~commit_port:Tca_model.Params.Shared ~units ()

let validate ?telemetry ?par ~cfg (sc : Multi_tca.scenario) =
  let cfg = Config.with_tca_units cfg sc.Multi_tca.tca_units in
  Exp_common.validate_pair ?telemetry ?par ~cfg ~pair:sc.Multi_tca.pair
    ~model:(fun ~drain core mode ->
      Tca_model.Equations.composed_speedup_exn core
        (composition_of ~drain sc ~cfg)
        mode)
    ()

let scenarios ?(quick = false) () =
  let n_pairs = if quick then 150 else 400 in
  List.map
    (fun k -> Multi_tca.generate (Multi_tca.config ~n_pairs k))
    Multi_tca.all_kinds

let run ?telemetry ?par ?(quick = false) () =
  Tca_telemetry.Timing.with_span telemetry "multi_val.run" @@ fun () ->
  let cfg = Exp_common.validation_core () in
  Array.to_list
    (Tca_telemetry.Timing.fan_out ?telemetry ?par
       (fun ~telemetry sc -> (sc, validate ?telemetry ~cfg sc))
       (Array.of_list (scenarios ~quick ())))

(* Per-unit simulator breakdown across all scenarios and modes: the
   [Sim_stats.per_unit] counters the refactor added, which only exist
   when more than one unit is configured. *)
let per_unit_table results =
  A.table ~name:"per-unit"
    ~headers:
      [
        "workload"; "mode"; "unit"; "invocations"; "busy"; "head-wait";
        "serialize";
      ]
    (List.concat_map
       (fun ((sc : Multi_tca.scenario), ((_ : Exp_common.validation_row list), cmp)) ->
         List.concat_map
           (fun (r : Simulator.mode_result) ->
             List.map
               (fun (u : Sim_stats.unit_stats) ->
                 A.
                   [
                     text sc.Multi_tca.pair.Meta.meta.Meta.name;
                     text
                       (Tca_model.Mode.to_string
                          (Exp_common.mode_of_coupling r.Simulator.coupling));
                     int u.Sim_stats.unit_id;
                     int u.Sim_stats.invocations;
                     int u.Sim_stats.busy_cycles;
                     int u.Sim_stats.wait_for_head_cycles;
                     int u.Sim_stats.serialize_stall_cycles;
                   ])
               r.Simulator.stats.Sim_stats.per_unit)
           cmp.Simulator.modes)
       results)

let artifact results =
  let rows = List.concat_map (fun (_, (rows, _)) -> rows) results in
  let cfg = Exp_common.validation_core () in
  let comp_notes =
    List.map
      (fun ((sc : Multi_tca.scenario), _) ->
        A.Note
          (Format.asprintf "%s: composition %a"
             sc.Multi_tca.pair.Meta.meta.Meta.name
             Tca_model.Params.pp_composition (composition_of sc ~cfg)))
      results
  in
  A.make ~job:"simulate.multi_tca"
    ~title:
      "simulate: two heterogeneous TCA units (alternating / chained / \
       contended), composed model vs simulator"
    (comp_notes
    @ [ A.Table (Exp_common.validation_table rows) ]
    @ List.map (fun n -> A.Note n) (Exp_common.validation_summary_notes rows)
    @ [
        A.Note
          "known model limit: the composed L_T floor (sum of v_i * t_i) \
           assumes invocations serialize, but pipelined units overlap \
           invocations across the ROB window, so deep-latency L_T \
           compositions run faster than predicted (negative error above)";
        A.Table (per_unit_table results);
      ])

(* The extension figure: composed-model speedup as the chained fraction
   sweeps 0 -> 1 for both commit-port arrangements, on the chained
   scenario's unit mix. Model-only (the simulated anchor points are the
   job above); shows the contention term t_cont = chi * v * t_commit
   splitting the shared from the private port as chaining grows. *)
let sweep ?(points = 21) ?(core = Tca_model.Presets.hp_core) () =
  let cfg = Exp_common.validation_core () in
  let sc = Multi_tca.generate (Multi_tca.config Multi_tca.Chained) in
  let base = composition_of sc ~cfg in
  let chis = Array.to_list (Tca_util.Sweep.linspace_exn 0.0 1.0 points) in
  ( core,
    base,
    List.map
      (fun chained ->
        let speedups port =
          Tca_model.Equations.composed_speedups_exn core
            { base with Tca_model.Params.chained; commit_port = port }
        in
        ( chained,
          speedups Tca_model.Params.Shared,
          speedups Tca_model.Params.Private ))
      chis )

let sweep_table rows =
  let headers =
    "chained"
    :: List.concat_map
         (fun m ->
           let m = Tca_model.Mode.to_string m in
           [ m ^ "/sh"; m ^ "/pr" ])
         Tca_model.Mode.all
  in
  A.table ~name:"composition-sweep" ~headers
    (List.map
       (fun (chained, shared, private_) ->
         A.flt ~decimals:2 chained
         :: List.concat_map
              (fun ((_, s), (_, p)) -> [ A.flt s; A.flt p ])
              (List.combine shared private_))
       rows)

let sweep_artifact (core, base, rows) =
  let gap (_, shared, private_) =
    (* largest private-over-shared advantage across modes at this chi *)
    List.fold_left2
      (fun acc (_, s) (_, p) -> Float.max acc (100.0 *. ((p /. s) -. 1.0)))
      0.0 shared private_
  in
  let worst =
    List.fold_left (fun acc r -> Float.max acc (gap r)) 0.0 rows
  in
  A.make ~job:"composition"
    ~title:
      "X10: composed-model speedup vs chained fraction, shared vs private \
       commit port"
    [
      A.Note
        (Format.asprintf "core %a" Tca_model.Params.pp_core core);
      A.Note
        (Format.asprintf "unit mix %a (chained swept below)"
           Tca_model.Params.pp_composition base);
      A.Table (sweep_table rows);
      A.Note
        (Printf.sprintf
           "max private-port advantage across the sweep: %.2f%% (the \
            t_cont = chi * v * t_commit contention term)"
           worst);
    ]
