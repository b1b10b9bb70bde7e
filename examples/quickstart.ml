(* Quickstart: evaluate a candidate TCA on a stock core in a dozen lines.

   Scenario: you are considering a hash-map probe accelerator that
   replaces ~150-instruction software probes, is invoked once every 400
   instructions in your target workload, and runs the probe 4x faster
   than software. Which coupling mode do you need to build?

   Run with: dune exec examples/quickstart.exe *)

open Tca_model

let () =
  let core = Presets.hp_core in
  let scenario =
    Params.scenario_exn
      ~a:(150.0 /. 400.0) (* acceleratable fraction *)
      ~v:(1.0 /. 400.0) (* one invocation per 400 instructions *)
      ~accel:(Params.Factor 4.0)
      ()
  in
  Format.printf "Candidate hash-map TCA on %a@.@." Params.pp_core core;
  List.iter
    (fun (mode, speedup) ->
      Format.printf "  %-6s %.3fx   (%s)@." (Mode.to_string mode) speedup
        (Mode.hardware_requirements mode))
    (Tca_util.Diag.ok_exn (Equations.speedups core scenario));
  let best, speedup =
    Tca_util.Diag.ok_exn (Equations.best_mode core scenario)
  in
  Format.printf "@.Best mode: %s at %.3fx.@." (Mode.to_string best) speedup;
  (* The same accelerator that speeds the program up with full OoO
     support can slow it down without it — check before committing to the
     cheap design. *)
  let worst = Equations.speedup_exn core scenario Mode.NL_NT in
  if worst < 1.0 then
    Format.printf
      "Warning: the dispatch-barrier design (NL_NT) would SLOW the \
       program to %.3fx.@."
      worst;
  (* How much coverage could this accelerator ever exploit? *)
  let peak_a =
    Tca_util.Diag.ok_exn (Concurrency.ideal_peak_coverage ~accel_factor:4.0)
  in
  Format.printf
    "With A = 4, program speedup is maximised (at %.1fx) once %.0f%% of \
     the code is offloaded — offloading more under-utilises the core.@."
    (Tca_util.Diag.ok_exn (Concurrency.ideal_peak_speedup ~accel_factor:4.0))
    (100.0 *. peak_a)
