(* Design-space exploration for the heap-manager TCA (Mallacc-style):
   sweep the malloc/free intensity of the application and, for each
   intensity, ask the model (and, for two points, the cycle-level
   simulator) which coupling mode is required to avoid slowdown.

   Run with: dune exec examples/heap_design_space.exe *)

open Tca_model
open Tca_workloads

let core = Presets.hp_core

(* One malloc/free pair costs (69 + 37)/2 = 53 instructions of software;
   an application issuing a heap call every [gap] instructions has
   v = 1 / (gap + 53) and a = 53 / (gap + 53). *)
let scenario_of_gap gap =
  let g = Greendroid.heap_manager_granularity in
  let interval = float_of_int gap +. g in
  Params.scenario_exn ~a:(g /. interval) ~v:(1.0 /. interval)
    ~accel:(Params.Latency (float_of_int Tca_heap.Cost_model.accel_latency))
    ()

let () =
  print_endline "Heap-manager TCA design space (model, HP core)";
  let gaps = [ 1600; 800; 400; 200; 100; 50; 25 ] in
  Tca_util.Table.print
    ~headers:[ "app gap"; "NL_NT"; "L_NT"; "NL_T"; "L_T"; "cheapest safe mode" ]
    (List.map
       (fun gap ->
         let s = scenario_of_gap gap in
         let speedups = Tca_util.Diag.ok_exn (Equations.speedups core s) in
         let safe =
           (* Cheapest mode (in Mode.all order) that avoids slowdown. *)
           match List.find_opt (fun (_, sp) -> sp >= 1.0) speedups with
           | Some (m, _) -> Mode.to_string m
           | None -> "none"
         in
         string_of_int gap
         :: List.map (fun (_, sp) -> Tca_util.Table.float_cell sp) speedups
         @ [ safe ])
       gaps);
  (* Cross-check two points against the cycle-level simulator. *)
  let cfg = Tca_experiments.Exp_common.validation_core () in
  List.iter
    (fun gap ->
      let pair =
        Heap_workload.generate
          (Heap_workload.config ~n_calls:1000 ~app_instrs_per_call:gap ())
      in
      let rows, _ =
        Tca_experiments.Exp_common.(
          validate_pair ~cfg ~pair
            ~model:(scenario_speedup pair.Meta.meta ~latency:1.0)
            ())
      in
      print_newline ();
      print_string
        (Tca_engine.Artifact.to_text
           (Tca_experiments.Exp_common.validation_artifact
              ~job:"heap_design_space"
              ~title:
                (Printf.sprintf
                   "Simulator cross-check at app gap %d (v and a as \
                    generated):"
                   gap)
              rows)))
    [ 400; 50 ];
  print_newline ();
  (* What partial speculation buys (paper Section VIII). *)
  let s = scenario_of_gap 100 in
  match
    Partial.required_confidence core s ~trailing:true
      ~target_speedup:(0.95 *. Equations.speedup_exn core s Mode.L_T)
  with
  | Some p ->
      Printf.printf
        "Speculating on just %.0f%% of invocations (high-confidence \
         branches) captures 95%% of the full L_T speedup at gap 100.\n"
        (100.0 *. p)
  | None -> print_endline "Partial speculation cannot reach 95% of L_T here."
