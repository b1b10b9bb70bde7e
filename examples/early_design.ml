(* Early-design-stage flow, fully simulator-free (the use case the paper
   opens with: "reduces the turnaround time in early design stages ...
   prior to the laborious development of a detailed simulator").

   Step 1: estimate the program's IPC from event counts with the
   mechanistic CPI model (Eyerman-style).
   Step 2: feed that IPC to the TCA analytical model and compare the four
   coupling designs.
   Step 3: check hardware cost, energy, and how robust the decision is to
   the estimates being off.

   Run with: dune exec examples/early_design.exe *)

open Tca_model

let () =
  (* A hypothetical workload characterised only by counters: one branch
     per 7 instructions at 2% mispredict, a quarter loads with 1% of them
     reaching DRAM, dependence-limited at ~2.2 IPC. *)
  let machine =
    Tca_interval.Mechanistic.machine ~dispatch_width:4 ~rob_size:256
      ~frontend_depth:12 ()
  in
  let stats =
    Tca_interval.Mechanistic.stats ~chain_ipc:2.2 ~branch_rate:(1.0 /. 7.0)
      ~mispredict_rate:0.02 ~load_rate:0.25 ~dram_miss_rate:0.01 ~mlp:2.0 ()
  in
  let b = Tca_interval.Mechanistic.evaluate machine stats in
  Printf.printf
    "Step 1 — mechanistic IPC estimate: %.2f (base %.2f + mispredict %.2f \
     + memory %.2f CPI)\n\n"
    b.Tca_interval.Mechanistic.ipc b.Tca_interval.Mechanistic.base_cpi
    b.Tca_interval.Mechanistic.mispredict_cpi
    b.Tca_interval.Mechanistic.memory_cpi;
  (* Candidate TCA: replaces 250-instruction regions covering 40% of the
     program, 5x faster than software. *)
  let core =
    Tca_util.Diag.ok_exn
      (Params.core ~ipc:b.Tca_interval.Mechanistic.ipc ~rob_size:256
         ~issue_width:4 ~commit_stall:10.0 ())
  in
  let scenario =
    Tca_util.Diag.ok_exn
      (Params.scenario_of_granularity ~a:0.4 ~g:250.0
         ~accel:(Params.Factor 5.0) ())
  in
  print_endline "Step 2 — the four coupling designs:";
  Tca_util.Table.print
    ~headers:[ "mode"; "speedup"; "hw cost"; "rel. energy"; "status" ]
    (let designs = Hw_cost.designs core scenario in
     let front = Hw_cost.pareto_front designs in
     let verdicts = Energy.evaluate (Energy.make ()) core scenario in
     List.map2
       (fun (d : Hw_cost.design) (v : Energy.verdict) ->
         [
           Mode.to_string d.Hw_cost.mode;
           Tca_util.Table.float_cell d.Hw_cost.speedup;
           Tca_util.Table.float_cell ~decimals:2 d.Hw_cost.cost;
           Tca_util.Table.float_cell v.Energy.relative_energy;
           (if List.exists (fun (f : Hw_cost.design) -> f.Hw_cost.mode = d.Hw_cost.mode) front
            then "pareto"
            else "dominated");
         ])
       designs verdicts);
  print_newline ();
  let best, speedup =
    Tca_util.Diag.ok_exn (Equations.best_mode core scenario)
  in
  Printf.printf "Step 3 — recommendation: build %s (%.2fx); decision stable \
                 under +/-20%% parameter error: %b\n"
    (Mode.to_string best) speedup
    (Tca_util.Diag.ok_exn (Sensitivity.decision_stable core scenario));
  print_endline "Largest speedup sensitivities for that design:";
  Tca_util.Table.print ~headers:Sensitivity.headers
    (Sensitivity.rows
       (List.filteri
          (fun i _ -> i < 3)
          (Tca_util.Diag.ok_exn (Sensitivity.swings core scenario best))))
