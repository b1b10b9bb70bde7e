open Tca_uarch
open Tca_workloads

let validation_core () = Config.hp ()

(* The model's t_commit is the whole front-end-visible barrier latency:
   the simulated commit depth plus the commit/dispatch handoff (one cycle
   to retire at the head, one for dispatch to restart). *)
let commit_handoff = 2

let model_core_of (cfg : Config.t) ~ipc =
  Tca_util.Diag.ok_exn
    (Tca_model.Params.core ~ipc ~rob_size:cfg.Config.rob_size
       ~issue_width:cfg.Config.dispatch_width
       ~commit_stall:(float_of_int (cfg.Config.commit_depth + commit_handoff))
       ())

let coupling_of_mode = function
  | Tca_model.Mode.NL_NT -> Config.coupling_nl_nt
  | Tca_model.Mode.L_NT -> Config.coupling_l_nt
  | Tca_model.Mode.NL_T -> Config.coupling_nl_t
  | Tca_model.Mode.L_T -> Config.coupling_l_t

let mode_of_coupling (c : Config.coupling) =
  match (c.Config.allow_leading, c.Config.allow_trailing) with
  | false, false -> Tca_model.Mode.NL_NT
  | true, false -> Tca_model.Mode.L_NT
  | false, true -> Tca_model.Mode.NL_T
  | true, true -> Tca_model.Mode.L_T

let scenario_of_meta ?drain ?config (meta : Meta.t) ~latency =
  Tca_model.Params.scenario_exn ?drain ?config ~a:meta.Meta.a ~v:meta.Meta.v
    ~accel:(Tca_model.Params.Latency latency) ()

let meta_latency (meta : Meta.t) ~cfg =
  Config.accel_latency_estimate cfg ~reads:meta.Meta.avg_reads_per_invocation
    ~writes:meta.Meta.avg_writes_per_invocation
    ~fresh_lines:meta.Meta.avg_fresh_lines_per_invocation
    ~compute:(float_of_int meta.Meta.compute_latency)

type validation_row = {
  workload : string;
  v : float;
  a : float;
  base_ipc : float;
  mode : Tca_model.Mode.t;
  sim_speedup : float;
  model_speedup : float;
  model_refill_speedup : float;
}

let error_pct r =
  100.0 *. (r.model_speedup -. r.sim_speedup) /. r.sim_speedup

let refill_error_pct r =
  100.0 *. (r.model_refill_speedup -. r.sim_speedup) /. r.sim_speedup

let scenario_speedup ?config meta ~latency ~drain core mode =
  Tca_model.Equations.speedup_exn core
    (scenario_of_meta ~drain ?config meta ~latency)
    mode

let validate_pair ?telemetry ?par ?label ~cfg ~(pair : Meta.pair) ~model () =
  let meta = pair.Meta.meta in
  let label = Option.value label ~default:meta.Meta.name in
  let cmp =
    Tca_telemetry.Timing.with_span telemetry ("validate." ^ label) (fun () ->
        Tca_util.Diag.ok_exn
          (Simulator.compare_modes ?telemetry ?par ~cfg
             ~baseline:pair.Meta.baseline ~accelerated:pair.Meta.accelerated
             ()))
  in
  let ipc = cmp.Simulator.baseline.Sim_stats.ipc in
  let core = model_core_of cfg ~ipc in
  let rows =
    List.map
      (fun (r : Simulator.mode_result) ->
        let mode = mode_of_coupling r.Simulator.coupling in
        {
          workload = label;
          v = meta.Meta.v;
          a = meta.Meta.a;
          base_ipc = ipc;
          mode;
          sim_speedup = r.Simulator.speedup;
          model_speedup = model ~drain:Tca_interval.Drain.Auto core mode;
          model_refill_speedup =
            model ~drain:Tca_interval.Drain.Refill_aware core mode;
        })
      cmp.Simulator.modes
  in
  (rows, cmp)

let validation_sweep ?telemetry ?par ?latency point items =
  let cfg = validation_core () in
  let points =
    Tca_telemetry.Timing.fan_out ?telemetry ?par
      (fun ~telemetry item ->
        let pair, side =
          Tca_telemetry.Timing.with_span telemetry "sim.workload" (fun () ->
              point item)
        in
        let meta = pair.Meta.meta in
        let latency =
          match latency with Some l -> l | None -> meta_latency meta ~cfg
        in
        let rows, _ =
          validate_pair ?telemetry ~cfg ~pair
            ~model:(scenario_speedup meta ~latency)
            ()
        in
        (rows, side))
      (Array.of_list items)
  in
  let points = Array.to_list points in
  (List.concat_map fst points, List.map snd points)

let table_headers =
  [
    "workload"; "v"; "a"; "ipc"; "mode"; "sim"; "model"; "error";
    "model-rf"; "error-rf";
  ]

let validation_table rows =
  Tca_engine.Artifact.table ~name:"validation" ~headers:table_headers
    (List.map
       (fun r ->
         Tca_engine.Artifact.
           [
             text r.workload;
             flt ~decimals:5 r.v;
             flt ~decimals:4 r.a;
             flt ~decimals:2 r.base_ipc;
             text (Tca_model.Mode.to_string r.mode);
             flt r.sim_speedup;
             flt r.model_speedup;
             pct (error_pct r);
             flt r.model_refill_speedup;
             pct (refill_error_pct r);
           ])
       rows)

let points_of_rows rows =
  List.map
    (fun r ->
      {
        Tca_model.Validate.id = Printf.sprintf "%s(v=%.5f)" r.workload r.v;
        mode = r.mode;
        measured = r.sim_speedup;
        estimated = r.model_speedup;
      })
    rows

let refill_points_of_rows rows =
  List.map
    (fun r ->
      {
        Tca_model.Validate.id = Printf.sprintf "%s(v=%.5f)" r.workload r.v;
        mode = r.mode;
        measured = r.sim_speedup;
        estimated = r.model_refill_speedup;
      })
    rows

let validation_summary_notes rows =
  let report label points =
    match Tca_model.Validate.summarize points with
    | Error d ->
        Printf.sprintf "%-22s summary unavailable: %s" label
          (Tca_model.Diag.to_string d)
    | Ok s ->
        Printf.sprintf
          "%-22s error |%%|: mean %.1f%%  median %.1f%%  max %.1f%%  (n = %d); \
           mode ranking preserved: %b"
          label s.Tca_model.Validate.mean_abs_pct
          s.Tca_model.Validate.median_abs_pct s.Tca_model.Validate.max_abs_pct
          s.Tca_model.Validate.n
          (Tca_model.Validate.trends_preserved ~tolerance:0.05 points)
  in
  [
    report "model (paper drain)" (points_of_rows rows);
    report "model (refill drain)" (refill_points_of_rows rows);
  ]

let validation_artifact ~job ~title ?(notes = []) rows =
  Tca_engine.Artifact.make ~job ~title
    ((List.map (fun n -> Tca_engine.Artifact.Note n) notes)
    @ Tca_engine.Artifact.Table (validation_table rows)
      :: List.map
           (fun n -> Tca_engine.Artifact.Note n)
           (validation_summary_notes rows))

(* The workload pair (baseline + accelerated traces) and the architect's
   latency estimate shared by [tca sim], [tca trace] and the
   [simulate.*] jobs. [size] <= 0 selects the workload's default. *)
type workload_kind = Synthetic | Heap | Dgemm | Hashmap | Regex | Strfn

let workload_kinds =
  [
    ("synthetic", Synthetic); ("heap", Heap); ("dgemm", Dgemm);
    ("hashmap", Hashmap); ("regex", Regex); ("strfn", Strfn);
  ]

(* A [--size] the generator cannot build is a diagnostic, not an
   [Invalid_argument] escaping the CLI. *)
let size_error fmt =
  Printf.ksprintf
    (fun message -> Error (Tca_util.Diag.Invalid { field = "--size"; message }))
    fmt

let workload_pair ?telemetry ~cfg ?(size = 0) kind =
  Tca_telemetry.Timing.with_span telemetry "sim.workload" @@ fun () ->
  let auto_latency p = meta_latency p.Meta.meta ~cfg in
  match kind with
  | Synthetic ->
      let n_units = 4000 in
      let n_chunks = if size > 0 then size else 200 in
      if n_chunks > n_units then
        size_error "synthetic has %d units, so at most %d chunks; got %d"
          n_units n_units n_chunks
      else
        let p =
          Synthetic.generate
            (Synthetic.config ~n_units ~n_chunks ~accel_latency:20 ())
        in
        Ok (p, 20.0)
  | Heap ->
      let gap = if size > 0 then size else 100 in
      let p =
        Heap_workload.generate
          (Heap_workload.config ~n_calls:2000 ~app_instrs_per_call:gap ())
      in
      Ok (p, float_of_int Tca_heap.Cost_model.accel_latency)
  | Dgemm ->
      let n = if size > 0 then size else 64 in
      if n mod 32 <> 0 then
        size_error "dgemm needs a multiple of its 32-element block; got %d" n
      else
        let p = Dgemm_workload.pair (Dgemm_workload.config ~n ()) ~dim:4 in
        Ok (p, auto_latency p)
  | Hashmap ->
      let gap = if size > 0 then size else 200 in
      let p, _ =
        Hashmap_workload.generate
          (Hashmap_workload.config ~n_lookups:1500 ~app_instrs_per_lookup:gap
             ())
      in
      Ok (p, auto_latency p)
  | Regex ->
      let gap = if size > 0 then size else 800 in
      let p, _ =
        Regex_workload.generate
          (Regex_workload.config ~n_records:300 ~app_instrs_per_record:gap ())
      in
      Ok (p, auto_latency p)
  | Strfn ->
      let gap = if size > 0 then size else 300 in
      let p, _ =
        Strfn_workload.generate
          (Strfn_workload.config ~n_calls:1000 ~app_instrs_per_call:gap ())
      in
      Ok (p, auto_latency p)

let workload_name kind =
  fst (List.find (fun (_, k) -> k = kind) workload_kinds)

let simulate_title kind =
  Printf.sprintf
    "simulate: %s workload under all four couplings, model vs simulator"
    (workload_name kind)

let simulate_artifact ?telemetry ?par ?size kind =
  let cfg = validation_core () in
  let pair, latency =
    Tca_util.Diag.ok_exn (workload_pair ?telemetry ~cfg ?size kind)
  in
  validation_artifact
    ~job:("simulate." ^ workload_name kind)
    ~title:(simulate_title kind)
    ~notes:[ Format.asprintf "%a" Meta.pp pair.Meta.meta ]
    (fst
       (validate_pair ?telemetry ?par ~cfg ~pair
          ~model:(scenario_speedup pair.Meta.meta ~latency)
          ()))

(* Small instances of the six families for the golden Sim_stats tests:
   big enough to exercise every pipeline mechanism (accel reads/writes,
   branches, cache misses), small enough that ten full runs stay well
   under a second. Sizes are pinned — changing them invalidates the
   committed golden files. *)
let golden_pairs () =
  [
    ( "synthetic",
      Synthetic.generate
        (Synthetic.config ~n_units:100 ~n_chunks:10 ~accel_latency:20 ()) );
    ( "heap",
      Heap_workload.generate
        (Heap_workload.config ~n_calls:100 ~app_instrs_per_call:60 ()) );
    ( "dgemm",
      Dgemm_workload.pair (Dgemm_workload.config ~block:16 ~n:16 ()) ~dim:4 );
    ( "hashmap",
      fst
        (Hashmap_workload.generate
           (Hashmap_workload.config ~n_lookups:100 ~app_instrs_per_lookup:60
              ())) );
    ( "regex",
      fst
        (Regex_workload.generate
           (Regex_workload.config ~n_records:20 ~app_instrs_per_record:100 ()))
    );
    ( "strfn",
      fst
        (Strfn_workload.generate
           (Strfn_workload.config ~n_calls:100 ~app_instrs_per_call:60 ())) );
  ]
