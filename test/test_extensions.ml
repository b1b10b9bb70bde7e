(* Tests for the design-space extensions: hardware-cost Pareto analysis,
   the energy model, parameter sensitivity, the mechanistic CPI model,
   and the simulator's occupancy / miss-bandwidth knobs. *)

open Tca_model

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let hp = Presets.hp_core

let heap_scenario =
  Params.scenario_exn ~a:0.35 ~v:(1.0 /. 150.0) ~accel:(Params.Latency 1.0) ()

(* --- Hw_cost --- *)

let test_cost_ordering () =
  let c = Hw_cost.default in
  Alcotest.(check bool) "NL_NT cheapest" true
    (Hw_cost.mode_cost c Mode.NL_NT < Hw_cost.mode_cost c Mode.L_NT);
  Alcotest.(check bool) "L_T most expensive" true
    (List.for_all
       (fun m -> Hw_cost.mode_cost c Mode.L_T >= Hw_cost.mode_cost c m)
       Mode.all);
  Alcotest.(check bool) "L_T = datapath + both" true
    (feq (Hw_cost.mode_cost c Mode.L_T) (1.0 +. 0.35 +. 0.5))

let test_pareto_front () =
  let all = Hw_cost.designs hp heap_scenario in
  let front = Hw_cost.pareto_front all in
  let dominated = Hw_cost.dominated all in
  Alcotest.(check int) "front + dominated = all" 4
    (List.length front + List.length dominated);
  (* NL_NT (cheapest) and L_T (fastest) are always on the front. *)
  let on_front m =
    List.exists (fun (d : Hw_cost.design) -> Mode.equal d.Hw_cost.mode m) front
  in
  Alcotest.(check bool) "cheapest on front" true (on_front Mode.NL_NT);
  Alcotest.(check bool) "fastest on front" true (on_front Mode.L_T);
  (* Front is sorted by cost and speedup increases along it. *)
  let rec check_sorted = function
    | (a : Hw_cost.design) :: (b : Hw_cost.design) :: rest ->
        Alcotest.(check bool) "cost increasing" true (a.Hw_cost.cost <= b.Hw_cost.cost);
        Alcotest.(check bool) "speedup increasing" true
          (a.Hw_cost.speedup <= b.Hw_cost.speedup);
        check_sorted (b :: rest)
    | _ -> ()
  in
  check_sorted front

let test_pareto_no_dominated_on_front () =
  let all = Hw_cost.designs hp heap_scenario in
  let front = Hw_cost.pareto_front all in
  List.iter
    (fun (f : Hw_cost.design) ->
      List.iter
        (fun (o : Hw_cost.design) ->
          Alcotest.(check bool) "not dominated" false
            ((o.Hw_cost.cost <= f.Hw_cost.cost
             && o.Hw_cost.speedup > f.Hw_cost.speedup)
            || (o.Hw_cost.cost < f.Hw_cost.cost
               && o.Hw_cost.speedup >= f.Hw_cost.speedup)))
        all)
    front

let test_designs_default_costs () =
  let all = Hw_cost.designs hp heap_scenario in
  Alcotest.(check bool) "one design per mode, in Mode.all order" true
    (List.map (fun (d : Hw_cost.design) -> d.Hw_cost.mode) all = Mode.all);
  List.iter
    (fun (d : Hw_cost.design) ->
      Alcotest.(check bool) "default cost" true
        (feq d.Hw_cost.cost (Hw_cost.mode_cost Hw_cost.default d.Hw_cost.mode));
      Alcotest.(check bool) "model speedup" true
        (feq d.Hw_cost.speedup
           (Equations.speedup_exn hp heap_scenario d.Hw_cost.mode)))
    all

let test_cheapest_at_least () =
  let all = Hw_cost.designs hp heap_scenario in
  (match Hw_cost.cheapest_at_least all ~speedup:1.0 with
  | Some d -> Alcotest.(check bool) "meets target" true (d.Hw_cost.speedup >= 1.0)
  | None -> Alcotest.fail "some mode avoids slowdown here");
  Alcotest.(check bool) "unreachable target" true
    (Hw_cost.cheapest_at_least all ~speedup:100.0 = None)

let prop_pareto_subset =
  qtest "pareto front is a subset and non-empty"
    QCheck.(pair (float_range 0.05 0.95) (float_range 1.1 20.0))
    (fun (a, factor) ->
      let s =
        Diag.ok_exn (Params.scenario_of_granularity ~a ~g:200.0 ~accel:(Params.Factor factor) ())
      in
      let all = Hw_cost.designs hp s in
      let front = Hw_cost.pareto_front all in
      List.length front >= 1
      && List.length front <= 4
      && List.for_all
           (fun (f : Hw_cost.design) ->
             List.exists (fun (d : Hw_cost.design) -> d.Hw_cost.mode = f.Hw_cost.mode) all)
           front)

(* --- Energy --- *)

let test_energy_validation () =
  Alcotest.check_raises "static" (Invalid_argument "Energy.make: negative static power")
    (fun () -> ignore (Energy.make ~static_power:(-1.0) ()))

let test_energy_l_t_saves () =
  let verdicts = Energy.evaluate (Energy.make ()) hp heap_scenario in
  let v m = List.find (fun (x : Energy.verdict) -> Mode.equal x.Energy.mode m) verdicts in
  Alcotest.(check bool) "L_T saves energy" true
    ((v Mode.L_T).Energy.relative_energy < 1.0);
  (* A slowdown mode burns more static energy: worse relative energy than
     the fastest mode. *)
  Alcotest.(check bool) "NL_NT worse than L_T" true
    ((v Mode.NL_NT).Energy.relative_energy > (v Mode.L_T).Energy.relative_energy);
  Alcotest.(check bool) "EDP ordering too" true
    ((v Mode.NL_NT).Energy.edp > (v Mode.L_T).Energy.edp)

let test_energy_no_static_power () =
  (* Without static power, energy depends only on the dynamic savings:
     every mode saves the same amount regardless of its speed. *)
  let verdicts = Energy.evaluate (Energy.make ~static_power:0.0 ()) hp heap_scenario in
  let energies = List.map (fun (v : Energy.verdict) -> v.Energy.relative_energy) verdicts in
  List.iter
    (fun e -> Alcotest.(check bool) "all equal" true (feq ~eps:1e-9 e (List.hd energies)))
    energies;
  Alcotest.(check bool) "and below 1" true (List.hd energies < 1.0)

let test_energy_break_even () =
  let model = Energy.make () in
  let be = Energy.energy_break_even_speedup model hp heap_scenario in
  Alcotest.(check bool) "break-even below 1" true (be > 0.0 && be < 1.0);
  (* A mode exactly at the break-even speedup has relative energy 1. *)
  let base_t = (Diag.ok_exn (Equations.interval_times hp heap_scenario)).Equations.t_baseline in
  ignore base_t;
  (* Verify algebraically: energy at t = t_baseline / be equals baseline
     energy. *)
  let instrs = 1.0 /. heap_scenario.Params.v in
  let savings = (1.0 -. 0.2) *. heap_scenario.Params.a *. instrs in
  let t_be = (instrs /. hp.Params.ipc) +. (savings /. 0.5) in
  let dyn = instrs -. (heap_scenario.Params.a *. instrs) +. (0.2 *. heap_scenario.Params.a *. instrs) in
  let energy_at_be = dyn +. (0.5 *. t_be) in
  let base_e = Energy.baseline_energy model hp heap_scenario in
  Alcotest.(check bool) "break-even consistency" true
    (Float.abs (energy_at_be -. base_e) < 1e-6 *. base_e)

let prop_energy_positive =
  qtest "energy verdicts positive and finite"
    QCheck.(pair (float_range 0.05 0.95) (float_range 0.0 2.0))
    (fun (a, static) ->
      let s =
        Diag.ok_exn (Params.scenario_of_granularity ~a ~g:100.0 ~accel:(Params.Factor 3.0) ())
      in
      let model = Energy.make ~static_power:static () in
      List.for_all
        (fun (v : Energy.verdict) ->
          v.Energy.energy > 0.0 && Float.is_finite v.Energy.edp)
        (Energy.evaluate model hp s))

(* --- Sensitivity --- *)

let test_sensitivity_swings () =
  let sw = Diag.ok_exn (Sensitivity.swings hp heap_scenario Mode.L_T) in
  Alcotest.(check int) "one swing per parameter" 7 (List.length sw);
  (* Tornado ordering: magnitudes non-increasing. *)
  let rec sorted = function
    | (a : Sensitivity.swing) :: (b : Sensitivity.swing) :: rest ->
        a.Sensitivity.magnitude >= b.Sensitivity.magnitude -. 1e-12 && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "tornado order" true (sorted sw)

(* Each swing's ends are the speedups with its parameter scaled by 0.8
   and 1.2. *)
let test_sensitivity_twenty_percent () =
  let sw = Diag.ok_exn (Sensitivity.swings hp heap_scenario Mode.L_T) in
  let speedup_at (sw : Sensitivity.swing) factor =
    let core, s =
      Diag.ok_exn
        (Sensitivity.perturb hp heap_scenario sw.Sensitivity.parameter factor)
    in
    Equations.speedup_exn core s Mode.L_T
  in
  List.iter
    (fun (sw : Sensitivity.swing) ->
      Alcotest.(check bool) "low end at 0.8" true
        (feq sw.Sensitivity.low (speedup_at sw 0.8));
      Alcotest.(check bool) "high end at 1.2" true
        (feq sw.Sensitivity.high (speedup_at sw 1.2)))
    sw

let test_sensitivity_acceleration_direction () =
  let sw = Diag.ok_exn (Sensitivity.swings hp heap_scenario Mode.L_T) in
  let accel =
    List.find
      (fun (s : Sensitivity.swing) -> s.Sensitivity.parameter = Sensitivity.Acceleration)
      sw
  in
  Alcotest.(check bool) "more acceleration never hurts L_T" true
    (accel.Sensitivity.high >= accel.Sensitivity.low)

let test_sensitivity_perturb_clamps () =
  (* Coverage perturbation clamps into validity. *)
  let s = Params.scenario_exn ~a:0.9 ~v:0.001 ~accel:(Params.Factor 2.0) () in
  let _, s' = Diag.ok_exn (Sensitivity.perturb hp s Sensitivity.Coverage 1.5) in
  Alcotest.(check bool) "a clamped to 1" true (s'.Params.a <= 1.0);
  let _, s'' = Diag.ok_exn (Sensitivity.perturb hp s Sensitivity.Frequency 2.0) in
  Alcotest.(check bool) "v stays feasible" true (s''.Params.v <= s''.Params.a)

let test_sensitivity_latency_direction () =
  (* For an explicit-latency accel, scaling "acceleration" up means less
     latency, so speedup must not fall. *)
  let _, s = Diag.ok_exn (Sensitivity.perturb hp heap_scenario Sensitivity.Acceleration 2.0) in
  (match s.Params.accel with
  | Params.Latency l -> Alcotest.(check bool) "latency halved" true (feq l 0.5)
  | Params.Factor _ -> Alcotest.fail "expected latency");
  Alcotest.(check bool) "decision check runs" true
    (let _ = Diag.ok_exn (Sensitivity.decision_stable hp heap_scenario) in
     true)

(* --- Mechanistic --- *)

let machine4 =
  Tca_interval.Mechanistic.machine ~dispatch_width:4 ~rob_size:256
    ~frontend_depth:12 ()

let test_mechanistic_base_only () =
  let w = Tca_interval.Mechanistic.stats ~chain_ipc:8.0 () in
  let b = Tca_interval.Mechanistic.evaluate machine4 w in
  Alcotest.(check bool) "width-limited" true
    (feq b.Tca_interval.Mechanistic.total_cpi 0.25);
  let w2 = Tca_interval.Mechanistic.stats ~chain_ipc:1.0 () in
  let b2 = Tca_interval.Mechanistic.evaluate machine4 w2 in
  Alcotest.(check bool) "chain-limited" true
    (feq b2.Tca_interval.Mechanistic.total_cpi 1.0)

let test_mechanistic_terms_additive () =
  let w =
    Tca_interval.Mechanistic.stats ~chain_ipc:2.0 ~branch_rate:0.2
      ~mispredict_rate:0.05 ~load_rate:0.25 ~dram_miss_rate:0.1 ~mlp:2.0 ()
  in
  let b = Tca_interval.Mechanistic.evaluate machine4 w in
  Alcotest.(check bool) "sum" true
    (feq b.Tca_interval.Mechanistic.total_cpi
       (b.Tca_interval.Mechanistic.base_cpi
       +. b.Tca_interval.Mechanistic.mispredict_cpi
       +. b.Tca_interval.Mechanistic.memory_cpi));
  (* memory term: 0.25 * 0.1 * 100 / 2 = 1.25 *)
  Alcotest.(check bool) "memory term" true
    (feq b.Tca_interval.Mechanistic.memory_cpi 1.25)

let test_mechanistic_monotonic_in_events () =
  let ipc rate =
    Tca_interval.Mechanistic.ipc machine4
      (Tca_interval.Mechanistic.stats ~chain_ipc:3.0 ~branch_rate:0.125
         ~mispredict_rate:rate ())
  in
  Alcotest.(check bool) "more mispredicts, less IPC" true (ipc 0.1 < ipc 0.01);
  Alcotest.(check bool) "zero events recovers base" true (feq (ipc 0.0) 3.0)

let test_mechanistic_validation () =
  Alcotest.check_raises "chain"
    (Invalid_argument "Mechanistic.stats: chain_ipc must be positive")
    (fun () -> ignore (Tca_interval.Mechanistic.stats ~chain_ipc:0.0 ()));
  Alcotest.check_raises "mlp" (Invalid_argument "Mechanistic.stats: mlp below 1")
    (fun () ->
      ignore (Tca_interval.Mechanistic.stats ~chain_ipc:1.0 ~mlp:0.5 ()));
  Alcotest.check_raises "rate"
    (Invalid_argument "Mechanistic.stats: branch_rate out of [0, 1]")
    (fun () ->
      ignore
        (Tca_interval.Mechanistic.stats ~chain_ipc:1.0 ~branch_rate:2.0 ()))

let prop_mechanistic_bounded =
  qtest "IPC bounded by width and chain rate"
    QCheck.(
      quad (float_range 0.1 8.0) (float_range 0.0 0.3) (float_range 0.0 0.5)
        (float_range 0.0 0.3))
    (fun (chain, branch_rate, mispredict_rate, dram) ->
      let w =
        Tca_interval.Mechanistic.stats ~chain_ipc:chain ~branch_rate
          ~mispredict_rate ~load_rate:0.25 ~dram_miss_rate:dram ()
      in
      let ipc = Tca_interval.Mechanistic.ipc machine4 w in
      ipc > 0.0 && ipc <= 4.0 +. 1e-9 && ipc <= chain +. 1e-9)

(* --- Simulator knobs --- *)

let accel_mem_trace n =
  let open Tca_uarch in
  let b = Trace.Builder.create () in
  for i = 0 to n - 1 do
    for j = 0 to 19 do
      ignore j;
      Trace.Builder.add b (Isa.int_alu ~dst:(i mod 16) ())
    done;
    Trace.Builder.add b
      (Isa.accel ~compute_latency:12
         ~reads:[| i * 64 mod 4096; (i * 64 mod 4096) + 64 |]
         ~writes:[||] ())
  done;
  Trace.Builder.build b

let test_exclusive_occupancy () =
  let open Tca_uarch in
  let t = accel_mem_trace 60 in
  let run occ =
    let cfg =
      { (Config.hp ()) with Config.tca_occupancy = occ }
    in
    (Pipeline.run_exn cfg t).Sim_stats.cycles
  in
  let pipelined = run Config.Pipelined and exclusive = run Config.Exclusive in
  Alcotest.(check bool) "exclusive unit is slower under L_T" true
    (exclusive > pipelined);
  (* Under a full barrier, invocations never overlap anyway. *)
  let run_nt occ =
    let cfg =
      {
        (Config.with_coupling (Config.hp ()) Config.coupling_nl_nt) with
        Config.tca_occupancy = occ;
      }
    in
    (Pipeline.run_exn cfg t).Sim_stats.cycles
  in
  Alcotest.(check int) "NL_NT indifferent to occupancy"
    (run_nt Config.Pipelined) (run_nt Config.Exclusive)

(* --- Experiments --- *)

let test_design_space_scenarios () =
  Alcotest.(check int) "three scenarios" 3 (List.length Tca_experiments.Design_space.scenarios);
  List.iter
    (fun row ->
      let front, dominated = Tca_experiments.Design_space.pareto row in
      Alcotest.(check int) "partition" 4 (List.length front + List.length dominated);
      Alcotest.(check int) "four energy verdicts" 4
        (List.length (Tca_experiments.Design_space.energy row)))
    Tca_experiments.Design_space.scenarios

let test_mechanistic_cmp () =
  let rows = Tca_experiments.Mechanistic_cmp.run () in
  Alcotest.(check int) "four cases" 4 (List.length rows);
  List.iter
    (fun (r : Tca_experiments.Mechanistic_cmp.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within 30%%" r.Tca_experiments.Mechanistic_cmp.label)
        true
        (Float.abs r.Tca_experiments.Mechanistic_cmp.error_pct < 30.0))
    rows

let test_partial_speculation_sim () =
  let rows = Tca_experiments.Partial_spec.validate ~quick:true () in
  Alcotest.(check int) "five points" 5 (List.length rows);
  let sp p =
    (List.find
       (fun (r : Tca_experiments.Partial_spec.sim_row) ->
         r.Tca_experiments.Partial_spec.p = p)
       rows)
      .Tca_experiments.Partial_spec.sim_speedup
  in
  (* The endpoints bracket the blend, and more speculation helps. *)
  Alcotest.(check bool) "p=1 beats p=0" true (sp 1.0 > sp 0.0);
  Alcotest.(check bool) "p=0.5 in between" true
    (sp 0.5 >= sp 0.0 -. 0.02 && sp 0.5 <= sp 1.0 +. 0.02);
  (* Model tracks the simulator across the blend. *)
  List.iter
    (fun (r : Tca_experiments.Partial_spec.sim_row) ->
      let err =
        Float.abs
          (r.Tca_experiments.Partial_spec.model_speedup
          -. r.Tca_experiments.Partial_spec.sim_speedup)
        /. r.Tca_experiments.Partial_spec.sim_speedup
      in
      Alcotest.(check bool)
        (Printf.sprintf "p=%.2f within 25%%" r.Tca_experiments.Partial_spec.p)
        true (err < 0.25))
    rows

let test_partial_speculation_endpoints () =
  (* p = 0 must behave like NL, p = 1 like L, cycle-for-cycle. *)
  let open Tca_uarch in
  let b = Trace.Builder.create () in
  for i = 0 to 299 do
    if i mod 30 = 29 then
      Trace.Builder.add b
        (Isa.accel ~compute_latency:15 ~reads:[||] ~writes:[||] ())
    else Trace.Builder.add b (Isa.int_alu ~src1:(i mod 4) ~dst:(i mod 12) ())
  done;
  let t = Trace.Builder.build b in
  let cycles coupling frac =
    let cfg =
      {
        (Config.with_coupling (Config.hp ()) coupling) with
        Config.tca_speculate_fraction = frac;
      }
    in
    (Pipeline.run_exn cfg t).Sim_stats.cycles
  in
  Alcotest.(check int) "p=1 equals L_T"
    (cycles Config.coupling_l_t None)
    (cycles Config.coupling_nl_t (Some 1.0));
  Alcotest.(check int) "p=0 equals NL_T"
    (cycles Config.coupling_nl_t None)
    (cycles Config.coupling_l_t (Some 0.0))

let test_cores_cmp () =
  let results = Tca_experiments.Cores_cmp.run ~quick:true () in
  Alcotest.(check int) "two cores" 2 (List.length results);
  Alcotest.(check bool) "HP more mode-sensitive (paper obs. 1)" true
    (Tca_experiments.Cores_cmp.hp_more_sensitive results);
  (* The paper's corollary: overall speedups are higher on the weak core
     for the same fixed-latency accelerator. *)
  (match results with
  | [ hp; lp ] ->
      let lt r = List.assoc Mode.L_T r.Tca_experiments.Cores_cmp.mode_speedups in
      Alcotest.(check bool) "LP gains more from the same TCA" true
        (lt lp > lt hp *. 0.9)
  | _ -> Alcotest.fail "expected two cores")

let test_occupancy_ablation () =
  let rows = Tca_experiments.Occupancy.run ~n:32 () in
  Alcotest.(check int) "eight rows" 8 (List.length rows);
  let cycles occ m =
    (List.find
       (fun (r : Tca_experiments.Occupancy.row) ->
         r.Tca_experiments.Occupancy.occupancy = occ
         && Mode.equal r.Tca_experiments.Occupancy.mode m)
       rows)
      .Tca_experiments.Occupancy.cycles
  in
  (* Occupancy only matters where invocations can overlap. *)
  Alcotest.(check int) "NL_NT unchanged" (cycles "pipelined" Mode.NL_NT)
    (cycles "exclusive" Mode.NL_NT);
  Alcotest.(check bool) "L_T pays for the exclusive unit" true
    (cycles "exclusive" Mode.L_T > cycles "pipelined" Mode.L_T)

let () =
  Alcotest.run "tca_extensions"
    [
      ( "hw_cost",
        [
          Alcotest.test_case "cost ordering" `Quick test_cost_ordering;
          Alcotest.test_case "pareto front" `Quick test_pareto_front;
          Alcotest.test_case "front undominated" `Quick test_pareto_no_dominated_on_front;
          Alcotest.test_case "cheapest at least" `Quick test_cheapest_at_least;
          Alcotest.test_case "designs at default costs" `Quick test_designs_default_costs;
          prop_pareto_subset;
        ] );
      ( "energy",
        [
          Alcotest.test_case "validation" `Quick test_energy_validation;
          Alcotest.test_case "L_T saves" `Quick test_energy_l_t_saves;
          Alcotest.test_case "no static power" `Quick test_energy_no_static_power;
          Alcotest.test_case "break-even" `Quick test_energy_break_even;
          prop_energy_positive;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "swings" `Quick test_sensitivity_swings;
          Alcotest.test_case "swings at +-20%" `Quick test_sensitivity_twenty_percent;
          Alcotest.test_case "acceleration direction" `Quick test_sensitivity_acceleration_direction;
          Alcotest.test_case "perturb clamps" `Quick test_sensitivity_perturb_clamps;
          Alcotest.test_case "latency direction" `Quick test_sensitivity_latency_direction;
        ] );
      ( "mechanistic",
        [
          Alcotest.test_case "base only" `Quick test_mechanistic_base_only;
          Alcotest.test_case "terms additive" `Quick test_mechanistic_terms_additive;
          Alcotest.test_case "monotone in events" `Quick test_mechanistic_monotonic_in_events;
          Alcotest.test_case "validation" `Quick test_mechanistic_validation;
          prop_mechanistic_bounded;
        ] );
      ( "sim_knobs",
        [
          Alcotest.test_case "exclusive occupancy" `Quick test_exclusive_occupancy;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "design space" `Quick test_design_space_scenarios;
          Alcotest.test_case "mechanistic cmp" `Slow test_mechanistic_cmp;
          Alcotest.test_case "occupancy ablation" `Slow test_occupancy_ablation;
          Alcotest.test_case "cores comparison" `Slow test_cores_cmp;
          Alcotest.test_case "partial speculation sim" `Slow test_partial_speculation_sim;
          Alcotest.test_case "partial speculation endpoints" `Quick test_partial_speculation_endpoints;
        ] );
    ]
