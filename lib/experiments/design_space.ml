open Tca_model

type scenario_row = {
  name : string;
  core : Params.core;
  scenario : Params.scenario;
}

let scenarios =
  [
    {
      name = "heap manager (HP core)";
      core = Presets.hp_core;
      scenario =
        Params.scenario_exn ~a:0.35 ~v:(1.0 /. 150.0) ~accel:(Params.Latency 1.0)
          ();
    };
    {
      name = "GreenDroid function (LP core)";
      core = Presets.lp_core;
      scenario =
        Tca_util.Diag.ok_exn
          (Params.scenario_of_granularity ~a:0.5 ~g:400.0
             ~accel:(Params.Factor Tca_workloads.Greendroid.accel_factor) ());
    };
    {
      name = "DGEMM 4x4 tile (HP core)";
      core = Presets.hp_core;
      scenario =
        Params.scenario_exn ~a:0.95 ~v:(1.0 /. 300.0) ~accel:(Params.Latency 14.0)
          ();
    };
  ]

let pareto row =
  let all = Hw_cost.designs row.core row.scenario in
  (Hw_cost.pareto_front all, Hw_cost.dominated all)

let energy row = Energy.evaluate (Energy.make ()) row.core row.scenario

module A = Tca_engine.Artifact

let pareto_items row =
  let front, _ = pareto row in
  [
    A.Note "";
    A.Note (Printf.sprintf "-- %s --" row.name);
    A.Table
      (A.table
         ~name:("pareto: " ^ row.name)
         ~headers:[ "mode"; "hw cost"; "speedup"; "status" ]
         (List.map
            (fun (d : Hw_cost.design) ->
              let on_front =
                List.exists
                  (fun (f : Hw_cost.design) -> f.Hw_cost.mode = d.Hw_cost.mode)
                  front
              in
              [
                A.text (Mode.to_string d.Hw_cost.mode);
                A.flt ~decimals:2 d.Hw_cost.cost;
                A.flt d.Hw_cost.speedup;
                A.text (if on_front then "pareto" else "dominated");
              ])
            (Hw_cost.designs row.core row.scenario)));
    A.Note
      (match
         Hw_cost.cheapest_at_least
           (Hw_cost.designs row.core row.scenario)
           ~speedup:1.0
       with
      | Some d ->
          Printf.sprintf "cheapest design avoiding slowdown: %s (cost %.2f)"
            (Mode.to_string d.Hw_cost.mode) d.Hw_cost.cost
      | None -> "no design avoids slowdown in this scenario");
  ]

let energy_items row =
  [
    A.Note "";
    A.Note
      (Printf.sprintf "-- %s: energy (static 0.5/cycle, accel at 0.2x) --"
         row.name);
    A.Table
      (A.table
         ~name:("energy: " ^ row.name)
         ~headers:[ "mode"; "speedup"; "rel. energy"; "EDP" ]
         (List.map
            (fun (v : Energy.verdict) ->
              [
                A.text (Mode.to_string v.Energy.mode);
                A.flt v.Energy.speedup;
                A.flt v.Energy.relative_energy;
                A.flt v.Energy.edp;
              ])
            (energy row)));
    A.Note
      (Printf.sprintf
         "energy break-even speedup: %.3f (modes below this line waste energy)"
         (Energy.energy_break_even_speedup (Energy.make ()) row.core
            row.scenario));
  ]

let sensitivity_items row =
  let best, _ =
    Tca_util.Diag.ok_exn (Equations.best_mode row.core row.scenario)
  in
  [
    A.Note "";
    A.Note
      (Printf.sprintf "-- %s: sensitivity tornado (mode %s, +/-20%%) --"
         row.name (Mode.to_string best));
    A.Table
      (A.table
         ~name:("sensitivity: " ^ row.name)
         ~headers:Sensitivity.headers
         (List.map (List.map A.text)
            (Sensitivity.rows
               (Tca_util.Diag.ok_exn
                  (Sensitivity.swings row.core row.scenario best)))));
    A.Note
      (Printf.sprintf "best-mode decision stable under +/-20%%: %b"
         (Tca_util.Diag.ok_exn
            (Sensitivity.decision_stable row.core row.scenario)));
  ]

let artifact () =
  A.make ~job:"design"
    ~title:
      "X3: design-space analysis (paper Section VIII): Pareto fronts, \
       energy, sensitivity"
    (List.concat_map
       (fun row -> pareto_items row @ energy_items row @ sensitivity_items row)
       scenarios)
