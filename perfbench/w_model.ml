(* model-sweep: the analytical model alone. Each op is one [Grid.compute]
   (hp/lp core x four modes on a dense (v, a) grid); between the ops run
   [Equations.config_break_even] per configuration mechanism,
   composed-model evaluations and [Sensitivity.swings], which count
   towards throughput but not towards the op-time distribution. The
   inputs are fixed (no seed), so every digest is pinned. Work unit:
   model evaluations (a break-even solve counts as one). *)

open Tca_model

let grid_points = 256

type env = {
  freqs : float array;
  coverages : float array;
  cores : (string * Params.core) list;
  accel : Params.accel_time;
  scenario : Params.scenario;
  configs : Params.config_cost list;
  compositions : Params.composition list;
}

let setup () =
  let units ~config =
    [
      Params.unit_scenario_exn ~a:0.30 ~v:0.004 ~accel:(Params.Latency 10.) ();
      Params.unit_scenario_exn ~config ~a:0.25 ~v:0.002 ~accel:(Params.Latency 60.) ();
    ]
  in
  let chained = Tca_util.Sweep.linspace_exn 0. 1. 17 in
  {
    freqs = Tca_util.Sweep.logspace_exn 1e-4 0.5 grid_points;
    coverages = Tca_util.Sweep.linspace_exn 0.01 0.99 grid_points;
    cores = [ ("hp", Presets.hp_core); ("lp", Presets.lp_core) ];
    accel = Params.Factor 5.0;
    scenario =
      Params.scenario_exn ~a:0.4 ~v:0.004 ~accel:(Params.Latency 40.) ();
    configs =
      [
        Params.Sync 20.;
        Params.Queued { t_config = 40.; depth = 4 };
        Params.Preprogrammed { t_config = 500.; invocations = 1000 };
      ];
    compositions =
      List.concat_map
        (fun chained ->
          List.map
            (fun commit_port ->
              Params.composition_exn ~chained ~commit_port
                ~units:(units ~config:(Params.Sync 20.)) ())
            [ Params.Shared; Params.Private ])
        (Array.to_list chained);
  }

(* Exact checksum over float bit patterns: cheap enough to leave inside
   the timed op. *)
let mix h x = (h * 1_000_003) lxor Int64.to_int (Int64.bits_of_float x)
let mix_all h a = Array.fold_left mix h a
let digest h = Printf.sprintf "%016x" (h land max_int)

let grid env core mode () =
  let cells = float_of_int (Array.length env.freqs * Array.length env.coverages) in
  match
    Layers.time "model.grid" ~work:(fun _ -> cells) (fun () ->
        Grid.compute core ~accel:env.accel ~freqs:env.freqs
          ~coverages:env.coverages mode)
  with
  | Error d -> Error (Diag.to_string d)
  | Ok g ->
      let h = Array.fold_left mix_all 0 g.Grid.cells in
      Runner.ok (digest (mix h (float_of_int (List.length g.Grid.failures)))) cells

let ok_exn = function Ok v -> v | Error d -> raise (Diag.Error d)

(* The interleaved model calls of one (core, mode) point. *)
let aux env core mode () =
  let solves =
    Layers.time "model.break_even"
      ~work:(fun l -> float_of_int (List.length l))
      (fun () ->
        List.concat_map
          (fun config ->
            List.map
              (fun a ->
                ok_exn (Equations.config_break_even core ~a ~accel:env.accel ~config mode))
              [ 0.2; 0.5; 0.8 ])
          env.configs)
  in
  let h = List.fold_left (fun h g -> mix h (Option.value g ~default:nan)) 0 solves in
  let composed =
    Layers.time "model.composed"
      ~work:(fun l -> float_of_int (List.length l))
      (fun () ->
        List.map (fun c -> ok_exn (Equations.composed_speedup core c mode)) env.compositions)
  in
  let h = mix_all h (Array.of_list composed) in
  let swings =
    Layers.time "model.swings"
      ~work:(fun l -> float_of_int (2 * List.length l))
      (fun () -> ok_exn (Sensitivity.swings core env.scenario mode))
  in
  let h =
    List.fold_left
      (fun h (s : Sensitivity.swing) -> mix (mix h s.Sensitivity.low) s.Sensitivity.high)
      h swings
  in
  Runner.ok (digest h)
    (float_of_int (List.length solves + List.length composed + (2 * List.length swings)))

let ops env =
  List.concat_map
    (fun (cname, core) ->
      List.concat_map
        (fun mode ->
          let label = cname ^ "/" ^ Mode.to_string mode in
          [
            { Runner.label; counted = true; run = grid env core mode };
            { Runner.label = label ^ "/aux"; counted = false; run = aux env core mode };
          ])
        Mode.all)
    env.cores

let extras _ = []

let spec ~model_error =
  {
    Runner.setup;
    setup_reps = 500;
    ops;
    pins = Some Pins.model_sweep;
    post = (fun _ -> []);
    model_error = (fun _ -> model_error ());
    extras;
  }
