(* Matrix-multiply-accumulate TCA study: verify the MMA kernels compute
   the right numbers, then compare the three accelerator widths under all
   four coupling modes in the cycle-level simulator — the workload of the
   paper's Fig. 6, at an example-friendly size.

   Run with: dune exec examples/dgemm_modes.exe *)

open Tca_dgemm
open Tca_workloads

let () =
  (* 1. The accelerator semantics are real math: the blocked MMA
     decomposition must reproduce the naive product exactly. *)
  let rng = Tca_util.Prng.create 2024 in
  let a = Matrix.random rng 64 and b = Matrix.random rng 64 in
  let reference = Matrix.multiply_naive a b in
  List.iter
    (fun dim ->
      let c = Mma.multiply_blocked_mma ~block:32 ~dim a b in
      Printf.printf
        "%dx%d MMA decomposition: max |diff| vs naive = %.2e (%s)\n" dim dim
        (Matrix.max_abs_diff reference c)
        (if Matrix.equal ~eps:1e-9 reference c then "ok" else "MISMATCH"))
    Mma.supported_dims;
  print_newline ();
  (* 2. Simulate the 4x4 TCA under each coupling and report where the
     cycles go. *)
  let cfg = Tca_experiments.Exp_common.validation_core () in
  let pair = Dgemm_workload.pair (Dgemm_workload.config ~n:32 ()) ~dim:4 in
  Format.printf "workload: %a@.@." Meta.pp pair.Meta.meta;
  let cmp =
    Tca_util.Diag.ok_exn
      (Tca_uarch.Simulator.compare_modes ~cfg ~baseline:pair.Meta.baseline
         ~accelerated:pair.Meta.accelerated ())
  in
  Printf.printf "baseline: %d cycles (IPC %.2f)\n\n"
    cmp.Tca_uarch.Simulator.baseline.Tca_uarch.Sim_stats.cycles
    cmp.Tca_uarch.Simulator.baseline.Tca_uarch.Sim_stats.ipc;
  List.iter
    (fun (r : Tca_uarch.Simulator.mode_result) ->
      let s = r.Tca_uarch.Simulator.stats in
      Printf.printf
        "%-6s %8d cycles  speedup %6.2fx  accel busy %6d cyc  head-wait \
         %6d cyc  dispatch barrier %6d cyc\n"
        (Tca_uarch.Config.coupling_name r.Tca_uarch.Simulator.coupling)
        s.Tca_uarch.Sim_stats.cycles r.Tca_uarch.Simulator.speedup
        s.Tca_uarch.Sim_stats.accel_busy_cycles
        s.Tca_uarch.Sim_stats.accel_wait_for_head_cycles
        s.Tca_uarch.Sim_stats.stalls.Tca_uarch.Sim_stats.serialize)
    cmp.Tca_uarch.Simulator.modes;
  print_newline ();
  print_endline
    "Note how the dispatch barrier (NT) and head-wait (NL) cycles, not \
     the accelerator's own latency, separate the four designs."
