open Tca_experiments
open Tca_model

(* These are integration tests over the full stack: workload generation,
   cycle-level simulation and the analytical model, at reduced ("quick")
   sizes. They check the paper's qualitative claims, not exact numbers. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* The non-empty CSV lines of one named table of a job's artifact. *)
let csv_lines (artifact : Tca_engine.Artifact.t) name =
  match Tca_engine.Artifact.find_table artifact name with
  | None -> Alcotest.failf "%s has no %S table" artifact.job name
  | Some t ->
      List.filter
        (fun l -> l <> "")
        (String.split_on_char '\n' (Tca_engine.Artifact.table_csv t))

(* --- Exp_common --- *)

let test_mode_coupling_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Mode.equal m (Exp_common.mode_of_coupling (Exp_common.coupling_of_mode m))))
    Mode.all

let test_model_core_of () =
  let cfg = Exp_common.validation_core () in
  let core = Exp_common.model_core_of cfg ~ipc:2.5 in
  Alcotest.(check bool) "ipc propagated" true (feq core.Params.ipc 2.5);
  Alcotest.(check int) "rob propagated" cfg.Tca_uarch.Config.rob_size
    core.Params.rob_size

(* A size the generator cannot build comes back as an [Invalid]
   diagnostic naming [--size] (exit 7 at the CLI), never as an escaping
   [Invalid_argument]. *)
let test_workload_pair_size () =
  let cfg = Exp_common.validation_core () in
  let rejects what size kind =
    match Exp_common.workload_pair ~cfg ~size kind with
    | Error (Tca_util.Diag.Invalid { field; _ }) ->
        Alcotest.(check string) (what ^ " names --size") "--size" field
    | Error d -> Alcotest.fail (what ^ ": " ^ Tca_util.Diag.to_string d)
    | Ok _ -> Alcotest.fail (what ^ " accepted")
  in
  rejects "dgemm 33" 33 Exp_common.Dgemm;
  rejects "dgemm 10" 10 Exp_common.Dgemm;
  rejects "synthetic 5000" 5000 Exp_common.Synthetic;
  match Exp_common.workload_pair ~cfg ~size:32 Exp_common.Dgemm with
  | Ok (pair, _) ->
      Alcotest.(check bool) "dgemm 32 builds" true
        (pair.Tca_workloads.Meta.meta.Tca_workloads.Meta.invocations > 0)
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)

(* Omitting [--size] builds every workload at its default, and the
   synthetic chunk bound is inclusive: one chunk per unit is legal. *)
let test_workload_pair_defaults () =
  let cfg = Exp_common.validation_core () in
  let invocations ?size kind =
    match Exp_common.workload_pair ~cfg ?size kind with
    | Ok (pair, latency) ->
        Alcotest.(check bool) "positive latency estimate" true (latency > 0.0);
        pair.Tca_workloads.Meta.meta.Tca_workloads.Meta.invocations
    | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  in
  List.iter
    (fun (name, kind) ->
      Alcotest.(check bool) (name ^ " default builds") true (invocations kind > 0))
    Exp_common.workload_kinds;
  Alcotest.(check int) "synthetic at 4000 chunks" 4000
    (invocations ~size:4000 Exp_common.Synthetic)

(* --- Table 1 --- *)

let test_table1 () =
  Alcotest.(check int) "eight parameter rows" 8 (List.length (Table1.rows ()))

(* --- Fig 2 --- *)

let test_fig2 () =
  let rows = Fig2.run ~points:15 () in
  Alcotest.(check int) "rows" 15 (List.length rows);
  (* Fine-grained end: mode choice matters; NL_NT actually slows down. *)
  let fine = List.hd rows in
  Alcotest.(check bool) "NL_NT slowdown at fine grain" true
    (List.assoc Mode.NL_NT fine.Fig2.speedups < 1.0);
  Alcotest.(check bool) "L_T speedup at fine grain" true
    (List.assoc Mode.L_T fine.Fig2.speedups > 1.0);
  (* Coarse end: all four modes converge. *)
  let coarse = List.nth rows 14 in
  let values = List.map snd coarse.Fig2.speedups in
  let spread =
    List.fold_left Float.max (List.hd values) values
    -. List.fold_left Float.min (List.hd values) values
  in
  Alcotest.(check bool) "modes converge at coarse grain" true (spread < 0.01)

let test_fig2_csv () =
  let lines = csv_lines (Fig2.artifact (Fig2.run ~points:5 ())) "speedup" in
  Alcotest.(check int) "header + 5 lines" 6 (List.length lines)

(* --- Fig 3 --- *)

let test_fig3 () =
  let timelines = Fig3.run ~trailing:80 ~accel_latency:30 () in
  Alcotest.(check int) "four timelines" 4 (List.length timelines);
  let cycles m =
    (List.find (fun t -> Mode.equal t.Fig3.mode m) timelines).Fig3.cycles
  in
  Alcotest.(check bool) "NL_NT slowest" true
    (cycles Mode.NL_NT >= cycles Mode.L_T);
  (* Issue trace covers the whole run. *)
  List.iter
    (fun t ->
      Alcotest.(check int) "probe length equals cycles" t.Fig3.cycles
        (Array.length t.Fig3.issued);
      let total = Array.fold_left ( + ) 0 t.Fig3.issued in
      (* 150 leading + 1 TCA + 80 trailing μops. *)
      Alcotest.(check int) "everything issued once" 231 total)
    timelines

(* --- Fig 4 --- *)

let fig4_rows = lazy (Fig4.run ~quick:true ())

let test_fig4_shape () =
  let rows = Lazy.force fig4_rows in
  Alcotest.(check int) "3 sweep points x 4 modes" 12 (List.length rows);
  List.iter
    (fun (r : Exp_common.validation_row) ->
      Alcotest.(check bool) "speedups positive" true
        (r.Exp_common.sim_speedup > 0.0 && r.Exp_common.model_speedup > 0.0))
    rows

let test_fig4_refill_accuracy () =
  (* The headline validation claim: with the drain estimator matching the
     workload's ILP structure, the model tracks the simulator within a
     few percent (paper: "typically less than 5% error"). *)
  let rows = Lazy.force fig4_rows in
  let s = Tca_util.Diag.ok_exn (Validate.summarize (Exp_common.refill_points_of_rows rows)) in
  Alcotest.(check bool)
    (Printf.sprintf "median %.1f%% below 5%%" s.Validate.median_abs_pct)
    true
    (s.Validate.median_abs_pct < 5.0);
  Alcotest.(check bool)
    (Printf.sprintf "max %.1f%% below 15%%" s.Validate.max_abs_pct)
    true
    (s.Validate.max_abs_pct < 15.0)

let test_fig4_trends () =
  let rows = Lazy.force fig4_rows in
  Alcotest.(check bool) "refill model preserves mode ranking" true
    (Validate.trends_preserved ~tolerance:0.05
       (Exp_common.refill_points_of_rows rows))

(* --- Fig 5 --- *)

let fig5_rows = lazy (Fig5.run ~quick:true ())

let test_fig5_shape () =
  let rows = Lazy.force fig5_rows in
  Alcotest.(check int) "2 frequencies x 4 modes" 8 (List.length rows);
  (* Higher invocation frequency means larger a and v. *)
  let vs =
    List.sort_uniq compare
      (List.map (fun (r : Exp_common.validation_row) -> r.Exp_common.v) rows)
  in
  Alcotest.(check int) "two distinct frequencies" 2 (List.length vs)

let test_fig5_mode_story () =
  (* In the simulator, full OoO support is never worse than the dispatch
     barrier designs, and NL_NT is the worst of the four. *)
  let rows = Lazy.force fig5_rows in
  let by_v =
    List.sort_uniq compare
      (List.map (fun (r : Exp_common.validation_row) -> r.Exp_common.v) rows)
  in
  List.iter
    (fun v ->
      let group =
        List.filter (fun (r : Exp_common.validation_row) -> r.Exp_common.v = v) rows
      in
      let sim m =
        (List.find
           (fun (r : Exp_common.validation_row) -> Mode.equal r.Exp_common.mode m)
           group)
          .Exp_common.sim_speedup
      in
      Alcotest.(check bool) "L_T at least L_NT" true (sim Mode.L_T >= sim Mode.L_NT -. 0.02);
      Alcotest.(check bool) "NL_NT worst" true
        (sim Mode.NL_NT <= sim Mode.L_NT +. 0.02
        && sim Mode.NL_NT <= sim Mode.NL_T +. 0.02))
    by_v

let test_fig5_error_band () =
  (* Paper: heap errors stay moderate (theirs: within ~10%); allow a
     wider but still bounded band for the reproduction. *)
  let rows = Lazy.force fig5_rows in
  let s = Tca_util.Diag.ok_exn (Validate.summarize (Exp_common.points_of_rows rows)) in
  Alcotest.(check bool)
    (Printf.sprintf "median %.1f%% below 25%%" s.Validate.median_abs_pct)
    true
    (s.Validate.median_abs_pct < 25.0)

(* --- Fig 6 --- *)

let fig6_rows = lazy (Fig6.run ~n:32 ())

let test_fig6_shape () =
  let rows = Lazy.force fig6_rows in
  Alcotest.(check int) "3 accelerators x 4 modes" 12 (List.length rows)

let test_fig6_story () =
  let rows = Lazy.force fig6_rows in
  (* Bigger MMA tiles give bigger speedups (sim), and L_T is the best
     mode for every tile size. *)
  let sim name m =
    (List.find
       (fun (r : Exp_common.validation_row) ->
         r.Exp_common.workload = name && Mode.equal r.Exp_common.mode m)
       rows)
      .Exp_common.sim_speedup
  in
  Alcotest.(check bool) "8x8 beats 4x4 beats 2x2 (L_T)" true
    (sim "dgemm-8x8" Mode.L_T > sim "dgemm-4x4" Mode.L_T
    && sim "dgemm-4x4" Mode.L_T > sim "dgemm-2x2" Mode.L_T);
  List.iter
    (fun name ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "L_T best per accelerator" true
            (sim name Mode.L_T >= sim name m))
        Mode.all)
    [ "dgemm-2x2"; "dgemm-4x4"; "dgemm-8x8" ];
  (* The 2x2 tile is fine-grained enough that barrier modes slow the
     program down — the paper's fine-vs-coarse contrast. *)
  Alcotest.(check bool) "2x2 NL_NT slowdown" true
    (sim "dgemm-2x2" Mode.NL_NT < 1.0);
  Alcotest.(check bool) "8x8 NL_NT still speeds up" true
    (sim "dgemm-8x8" Mode.NL_NT > 1.0)

let test_fig6_model_trends () =
  let rows = Lazy.force fig6_rows in
  Alcotest.(check bool) "model (refill) preserves ranking" true
    (Validate.trends_preserved ~tolerance:0.05
       (Exp_common.refill_points_of_rows rows))

(* --- Fig 7 --- *)

let test_fig7 () =
  let maps = Fig7.run ~cols:24 ~rows:9 () in
  Alcotest.(check int) "2 cores x 4 modes" 8 (List.length maps);
  let frac core mode =
    (List.find
       (fun m -> m.Fig7.core_name = core && Mode.equal m.Fig7.mode mode)
       maps)
      .Fig7.slowdown_fraction
  in
  (* NL_NT has the largest slowdown region; L_T the smallest. *)
  Alcotest.(check bool) "HP: NL_NT riskiest" true
    (frac "HP" Mode.NL_NT >= frac "HP" Mode.L_T);
  (* High-performance cores are more sensitive to mode choice than
     low-performance cores (paper Section VI observation 1). *)
  Alcotest.(check bool) "HP more sensitive than LP" true
    (frac "HP" Mode.NL_NT -. frac "HP" Mode.L_T
    >= frac "LP" Mode.NL_NT -. frac "LP" Mode.L_T -. 0.05)

(* --- Fig 8 --- *)

let test_fig8 () =
  let series = Fig8.run ~points:97 () in
  Alcotest.(check int) "four series" 4 (List.length series);
  let lt = List.find (fun s -> Mode.equal s.Fig8.mode Mode.L_T) series in
  let a_star, s_star = lt.Fig8.peak in
  (* Paper headline: max speedup A + 1 = 3 at 67% coverage. *)
  Alcotest.(check bool) "peak speedup near 3" true
    (Float.abs (s_star -. 3.0) < 0.05);
  Alcotest.(check bool) "peak coverage near 2/3" true
    (Float.abs (a_star -. 0.667) < 0.03);
  let a_ideal, s_ideal = Fig8.ideal_peak in
  Alcotest.(check bool) "ideal peak values" true
    (feq s_ideal 3.0 && feq ~eps:1e-3 a_ideal (2.0 /. 3.0));
  (* No mode beats L_T anywhere in the sweep. *)
  List.iter
    (fun s ->
      Array.iteri
        (fun i (_, sp) ->
          Alcotest.(check bool) "L_T dominates" true
            (sp <= snd lt.Fig8.points.(i) +. 1e-9))
        s.Fig8.points)
    series

(* --- CSV emission --- *)

let test_csv_functions () =
  let lines8 = csv_lines (Fig8.artifact (Fig8.run ~points:5 ())) "series" in
  Alcotest.(check int) "fig8 header + 5 rows" 6 (List.length lines8);
  let lines = csv_lines (Fig7.artifact (Fig7.run ~cols:6 ~rows:3 ())) "cells" in
  (* 8 maps x at most 18 feasible cells each, plus the header. *)
  Alcotest.(check bool) "fig7 long format populated" true
    (List.length lines > 8 && List.length lines <= (8 * 18) + 1);
  Alcotest.(check string) "fig7 header" "core,mode,a,v,speedup" (List.hd lines)

let test_validation_csv () =
  let mk mode sim =
    {
      Exp_common.workload = "w";
      v = 0.001;
      a = 0.1;
      base_ipc = 2.0;
      mode;
      sim_speedup = sim;
      model_speedup = sim;
      model_refill_speedup = sim;
    }
  in
  let artifact =
    Exp_common.validation_artifact ~job:"w" ~title:"w"
      [ mk Mode.L_T 1.5; mk Mode.NL_NT 0.9 ]
  in
  let lines = csv_lines artifact "validation" in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "validation header"
    "workload,v,a,ipc,mode,sim,model,error,model-rf,error-rf" (List.hd lines)

(* --- LogCA comparison --- *)

let test_logca_cmp () =
  let rows = Logca_cmp.run ~points:9 () in
  Alcotest.(check int) "rows" 9 (List.length rows);
  (* At coarse granularity, LogCA and every TCA mode converge to the same
     Amdahl-limited value. *)
  let coarse = List.nth rows 8 in
  List.iter
    (fun (_, sp) ->
      Alcotest.(check bool) "convergence" true
        (Float.abs (sp -. coarse.Logca_cmp.logca) < 0.05))
    coarse.Logca_cmp.tca;
  (* At fine granularity, LogCA cannot distinguish the modes: the TCA
     model's spread across modes exceeds LogCA's single prediction
     error. *)
  let fine = List.hd rows in
  let tca_values = List.map snd fine.Logca_cmp.tca in
  let spread =
    List.fold_left Float.max (List.hd tca_values) tca_values
    -. List.fold_left Float.min (List.hd tca_values) tca_values
  in
  Alcotest.(check bool) "mode spread is first-order at fine grain" true
    (spread > 0.3)

(* --- Partial speculation --- *)

let test_partial_spec () =
  let rows = Partial_spec.run ~points:11 () in
  Alcotest.(check int) "rows" 11 (List.length rows);
  (* Speedup grows with speculation coverage in both trailing policies. *)
  let rec monotone f = function
    | a :: (b :: _ as rest) -> f a <= f b +. 1e-9 && monotone f rest
    | _ -> true
  in
  Alcotest.(check bool) "trailing monotone" true
    (monotone (fun r -> r.Partial_spec.speedup_t) rows);
  Alcotest.(check bool) "no-trailing monotone" true
    (monotone (fun r -> r.Partial_spec.speedup_nt) rows);
  match Partial_spec.confidence_for_95pct () with
  | Some p -> Alcotest.(check bool) "95% needs partial coverage" true (p > 0.0 && p <= 1.0)
  | None -> Alcotest.fail "95% of L_T reachable by construction"

let () =
  Alcotest.run "tca_experiments"
    [
      ( "exp_common",
        [
          Alcotest.test_case "mode/coupling roundtrip" `Quick test_mode_coupling_roundtrip;
          Alcotest.test_case "model core" `Quick test_model_core_of;
          Alcotest.test_case "workload_pair size" `Quick test_workload_pair_size;
          Alcotest.test_case "workload_pair defaults" `Quick test_workload_pair_defaults;
        ] );
      ("table1", [ Alcotest.test_case "rows" `Quick test_table1 ]);
      ( "fig2",
        [
          Alcotest.test_case "shape and story" `Quick test_fig2;
          Alcotest.test_case "csv" `Quick test_fig2_csv;
        ] );
      ("fig3", [ Alcotest.test_case "timelines" `Quick test_fig3 ]);
      ( "fig4",
        [
          Alcotest.test_case "shape" `Slow test_fig4_shape;
          Alcotest.test_case "refill accuracy" `Slow test_fig4_refill_accuracy;
          Alcotest.test_case "trends" `Slow test_fig4_trends;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "shape" `Slow test_fig5_shape;
          Alcotest.test_case "mode story" `Slow test_fig5_mode_story;
          Alcotest.test_case "error band" `Slow test_fig5_error_band;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "shape" `Slow test_fig6_shape;
          Alcotest.test_case "story" `Slow test_fig6_story;
          Alcotest.test_case "model trends" `Slow test_fig6_model_trends;
        ] );
      ("fig7", [ Alcotest.test_case "heatmaps" `Quick test_fig7 ]);
      ("fig8", [ Alcotest.test_case "A+1 concurrency" `Quick test_fig8 ]);
      ( "csv",
        [
          Alcotest.test_case "figure csv" `Quick test_csv_functions;
          Alcotest.test_case "validation csv" `Quick test_validation_csv;
        ] );
      ("logca", [ Alcotest.test_case "comparison" `Quick test_logca_cmp ]);
      ("partial", [ Alcotest.test_case "speculation blend" `Quick test_partial_spec ]);
    ]
