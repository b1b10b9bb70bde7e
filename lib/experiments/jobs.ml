module Job = Tca_engine.Job
module Registry = Tca_engine.Registry

let job = Job.make

let figure_jobs =
  [
    job ~name:"table1" ~title:"Table I: analytical model parameters"
      (fun _ctx -> Table1.artifact ());
    job ~name:"fig2"
      ~title:"Fig. 2: speedup vs granularity for the four coupling modes"
      (fun ctx -> Fig2.artifact (Fig2.run ?telemetry:ctx.Job.telemetry ()));
    job ~name:"fig3"
      ~title:"Fig. 3: per-cycle issue timelines across one TCA interval"
      (fun ctx ->
        Fig3.artifact
          (Fig3.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par ()));
    job ~name:"fig4"
      ~title:"Fig. 4: model error vs invocation frequency (synthetic sweep)"
      (fun ctx ->
        Fig4.artifact
          (Fig4.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"fig5"
      ~title:"Fig. 5: heap-manager TCA validation across invocation gaps"
      (fun ctx ->
        Fig5.artifact
          (Fig5.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"fig6"
      ~title:"Fig. 6: blocked DGEMM with 2x2/4x4/8x8 TCAs"
      (fun ctx ->
        Fig6.artifact
          (Fig6.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~n:(if ctx.Job.quick then 32 else 64)
             ()));
    job ~name:"fig7"
      ~title:"Fig. 7: speedup heatmaps over (v, a) for both cores, all modes"
      (fun ctx ->
        Fig7.artifact
          (Fig7.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~cols:(if ctx.Job.quick then 24 else 48)
             ~rows:(if ctx.Job.quick then 9 else 17)
             ()));
    job ~name:"fig8"
      ~title:"Fig. 8: speedup vs acceleratable fraction (concurrency bound)"
      (fun ctx ->
        Fig8.artifact
          (Fig8.run ?telemetry:ctx.Job.telemetry
             ~points:(if ctx.Job.quick then 33 else 97)
             ()));
    job ~name:"logca" ~title:"X1: LogCA comparison across granularity"
      (fun _ctx -> Logca_cmp.artifact (Logca_cmp.run ()));
    job ~name:"partial"
      ~title:"X2: partial TCA speculation, model blend + simulator cross-check"
      (fun ctx ->
        Partial_spec.artifact ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
          ~quick:ctx.Job.quick (Partial_spec.run ()));
    job ~name:"design"
      ~title:"X3: design-space Pareto fronts, energy, sensitivity"
      (fun _ctx -> Design_space.artifact ());
    job ~name:"mechanistic"
      ~title:"X4: mechanistic CPI model vs cycle-level simulator"
      (fun ctx ->
        Mechanistic_cmp.artifact
          (Mechanistic_cmp.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par ()));
    job ~name:"occupancy"
      ~title:"X5: pipelined vs exclusive accelerator occupancy (DGEMM)"
      (fun ctx ->
        (* n must be a multiple of the DGEMM workload's 32x32 blocking *)
        Occupancy.artifact
          (Occupancy.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~n:(if ctx.Job.quick then 32 else 64)
             ()));
    job ~name:"cores"
      ~title:"X6: HP vs LP core sensitivity to TCA mode (simulator)"
      (fun ctx ->
        Cores_cmp.artifact
          (Cores_cmp.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"hashmap" ~title:"X7: hash-map TCA validation"
      (fun ctx ->
        Hashmap_val.artifact
          (Hashmap_val.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"regexv" ~title:"X8: regular-expression TCA validation"
      (fun ctx ->
        Regex_val.artifact
          (Regex_val.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"strfn" ~title:"X9: string-function TCA validation"
      (fun ctx ->
        Strfn_val.artifact
          (Strfn_val.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"composition"
      ~title:"X10: composed-model speedup vs chained fraction (commit port)"
      (fun ctx ->
        Multi_val.sweep_artifact
          (Multi_val.sweep ~points:(if ctx.Job.quick then 11 else 21) ()));
    job ~name:"config_wall"
      ~title:
        "X12: configuration wall — speedup vs granularity per config mode, \
         with break-even crossings"
      (fun ctx ->
        Config_wall.artifact
          (Config_wall.run ?telemetry:ctx.Job.telemetry
             ~points:(if ctx.Job.quick then 17 else 33)
             ()));
    job ~name:"simulate.config_wall"
      ~title:
        "simulate: configuration mechanisms (sync / queued / preprog) \
         under all four couplings, model (T1)-(T3) vs simulator"
      ~params:[ ("workload", "config_wall") ]
      (fun ctx ->
        Config_wall.validate_artifact
          (Config_wall.validate ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
    job ~name:"simulate.multi_tca"
      ~title:
        "simulate: two heterogeneous TCA units under all four couplings, \
         composed model vs simulator"
      ~params:[ ("workload", "multi_tca") ]
      (fun ctx ->
        Multi_val.artifact
          (Multi_val.run ?telemetry:ctx.Job.telemetry ~par:ctx.Job.par
             ~quick:ctx.Job.quick ()));
  ]

let simulate_job (cli_name, kind) =
  job
    ~name:("simulate." ^ cli_name)
    ~title:(Exp_common.simulate_title kind)
    ~params:[ ("workload", cli_name) ]
    (fun ctx ->
      Exp_common.simulate_artifact ?telemetry:ctx.Job.telemetry
        ~par:ctx.Job.par kind)

let all () =
  figure_jobs @ List.map simulate_job Exp_common.workload_kinds

let registry () =
  let r = Registry.create () in
  List.iter (fun j -> Tca_util.Diag.ok_exn (Registry.register r j)) (all ());
  r
