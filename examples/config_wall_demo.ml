(* The configuration wall, in one what-if: the same accelerator under
   the three configuration mechanisms of MODEL.md (T1)-(T3).

   Scenario: a candidate TCA covers 30% of the program (A = 3), invoked
   once every 1000 instructions (g = a/v = 300 acceleratable
   instructions per invocation), but programming its operand registers
   takes 200 cycles. Does the coupling investment survive the
   configuration cost — and which mechanism do you need to build?

   Run with: dune exec examples/config_wall_demo.exe *)

open Tca_model

let core = Presets.arm_a72
let a = 0.3
let v = 1.0 /. 1000.0
let accel = Params.Factor 3.0
let t_config = 200.0

(* One scenario per mechanism. At t_config = 0 every one of these would
   be identical to [none] — the terms are strictly opt-in. *)
let variants =
  [
    ("none", Params.No_config);
    ("sync", Params.Sync t_config);
    ("queued", Params.Queued { t_config; depth = 4 });
    ("preprog", Params.Preprogrammed { t_config; invocations = 10_000 });
  ]

let () =
  Format.printf "Configuration wall on %a@." Params.pp_core core;
  Format.printf
    "a = %.0f%%, A = 3x, one invocation per %.0f instructions, t_config = \
     %.0f cycles@.@."
    (100.0 *. a) (1.0 /. v) t_config;
  (* Per-mechanism speedups under every coupling: the wall is tallest
     for synchronous CSR writes and vanishes under pre-programming. *)
  Format.printf "%-8s" "config";
  List.iter
    (fun m -> Format.printf "  %6s" (Mode.to_string m))
    Mode.all;
  Format.printf "@.";
  List.iter
    (fun (name, config) ->
      let s = Params.scenario_exn ~config ~a ~v ~accel () in
      Format.printf "%-8s" name;
      List.iter
        (fun m ->
          Format.printf "  %6.3f" (Equations.speedup_exn core s m))
        Mode.all;
      Format.printf "@.")
    variants;
  (* Break-even granularity: the smallest invocation size at which the
     configured accelerator stops losing to its own programming cost.
     Compare against your workload's measured granularity (tca analyze
     --config-break-even G turns this into a lint warning). *)
  Format.printf
    "@.break-even granularity (smallest g = a/v with L_T speedup >= 1):@.";
  List.iter
    (fun (name, config) ->
      match
        Tca_util.Diag.ok_exn
          (Equations.config_break_even core ~a ~accel ~config Mode.L_T)
      with
      | Some g -> Format.printf "  %-8s g >= %.0f@." name g
      | None -> Format.printf "  %-8s never (below g = 1e9)@." name)
    variants;
  (* The decision this example exists for. *)
  let speedup config =
    Equations.speedup_exn core
      (Params.scenario_exn ~config ~a ~v ~accel ())
      Mode.L_T
  in
  Format.printf
    "@.At g = 300: sync loses %.0f%% of the unconfigured speedup, queued \
     loses %.0f%%, preprog loses %.1f%% — a descriptor queue (or \
     one-time programming) is the difference between shipping the \
     accelerator and shelving it.@."
    (100.0 *. (1.0 -. (speedup (List.assoc "sync" variants) /. speedup Params.No_config)))
    (100.0 *. (1.0 -. (speedup (List.assoc "queued" variants) /. speedup Params.No_config)))
    (100.0 *. (1.0 -. (speedup (List.assoc "preprog" variants) /. speedup Params.No_config)))
