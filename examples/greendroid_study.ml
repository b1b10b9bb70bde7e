(* GreenDroid-style study (paper Section VI): place energy-motivated
   conservation-core functions (A = 1.5) on the speedup map for a
   high-performance and a low-performance core, and check which
   functions risk slowing the program down under the cheap coupling
   modes.

   Run with: dune exec examples/greendroid_study.exe *)

open Tca_model
open Tca_workloads

(* A fixed-function accelerator of granularity g invoked often enough to
   cover fraction [a] of the program has v = a / g. *)
let speedup core ~g ~cov mode =
  let s =
    Tca_util.Diag.ok_exn
      (Params.scenario_of_granularity ~a:cov ~g
         ~accel:(Params.Factor Greendroid.accel_factor) ())
  in
  Equations.speedup_exn core s mode

let () =
  List.iter
    (fun (core_name, core) ->
      Printf.printf "=== %s core ===\n" core_name;
      Tca_util.Table.print
        ~headers:
          [ "function"; "instrs"; "NL_NT@20%"; "L_T@20%"; "NL_NT@60%"; "L_T@60%" ]
        (List.map
           (fun (f : Greendroid.fn) ->
             let g = float_of_int f.Greendroid.static_instrs in
             [
               f.Greendroid.name;
               string_of_int f.Greendroid.static_instrs;
               Tca_util.Table.float_cell (speedup core ~g ~cov:0.2 Mode.NL_NT);
               Tca_util.Table.float_cell (speedup core ~g ~cov:0.2 Mode.L_T);
               Tca_util.Table.float_cell (speedup core ~g ~cov:0.6 Mode.NL_NT);
               Tca_util.Table.float_cell (speedup core ~g ~cov:0.6 Mode.L_T);
             ])
           Greendroid.functions);
      (* Which functions can be built with the cheap NL_NT design without
         slowing the program at 60% coverage? *)
      let safe, unsafe =
        List.partition
          (fun (f : Greendroid.fn) ->
            speedup core
              ~g:(float_of_int f.Greendroid.static_instrs)
              ~cov:0.6 Mode.NL_NT
            >= 1.0)
          Greendroid.functions
      in
      Printf.printf
        "NL_NT-safe at 60%% coverage: %d of %d functions%s\n\n"
        (List.length safe)
        (List.length Greendroid.functions)
        (if unsafe = [] then ""
         else
           " (needs OoO support: "
           ^ String.concat ", "
               (List.map (fun (f : Greendroid.fn) -> f.Greendroid.name) unsafe)
           ^ ")"))
    [ ("HP", Presets.hp_core); ("LP", Presets.lp_core) ];
  (* The heap manager for contrast: finer-grained, hence mode-critical. *)
  let g = Greendroid.heap_manager_granularity in
  Printf.printf
    "Heap manager (g = %.0f) on HP at 60%% coverage: NL_NT %.3fx vs L_T \
     %.3fx — fine-grained TCAs are the ones that punish cheap coupling.\n"
    g
    (speedup Presets.hp_core ~g ~cov:0.6 Mode.NL_NT)
    (speedup Presets.hp_core ~g ~cov:0.6 Mode.L_T)
