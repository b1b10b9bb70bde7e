(* sim-steady: the cycle-level simulator's hot loop. Set-up generates
   and decodes the pairs; each op is one [Pipeline.run] (simulated
   caches start cold in every run) on a baseline or on one of the four
   couplings. Work unit: simulated uops. *)

open Tca_uarch

let cfg = Inputs.cfg

(* The Sync and Queued configuration set-ups of [simulate.config_wall]
   (t_config 100 cycles, queue depth 4), on the synthetic pair. *)
let config_units =
  [
    ("sync", Tca_unit.make ~config_mode:Tca_unit.Sync ~config_latency:100 0);
    ( "queued",
      Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:100
        ~config_queue_depth:4 0 );
  ]

let entry_names = [ "synthetic"; "heap"; "dgemm"; "multi-contended" ]

(* Single-unit entries whose model error is the headline figure. *)
let error_names = [ "synthetic"; "heap"; "dgemm" ]

type env = {
  entries : Inputs.entry list;
  stats : (string, Sim_stats.t) Hashtbl.t;  (** last result per op label *)
}

let setup ~seed () =
  let entries = List.map (Inputs.generate ~seed) entry_names in
  List.iter Inputs.decode entries;
  { entries; stats = Hashtbl.create 32 }

(* Exact modelled-design counters, summed over the traced pass. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 16

let add k v =
  Hashtbl.replace sums k (v +. Option.value (Hashtbl.find_opt sums k) ~default:0.)

let record (s : Sim_stats.t) =
  let st = s.Sim_stats.stalls in
  List.iter
    (fun (k, v) -> add k (float_of_int v))
    [
      ("sim.cycles", s.Sim_stats.cycles);
      ("sim.committed", s.Sim_stats.committed);
      ("sim.stall.rob_full_cycles", st.Sim_stats.rob_full);
      ("sim.stall.iq_full_cycles", st.Sim_stats.iq_full);
      ("sim.stall.lsq_full_cycles", st.Sim_stats.lsq_full);
      ("sim.stall.serialize_cycles", st.Sim_stats.serialize);
      ("sim.stall.redirect_cycles", st.Sim_stats.redirect);
      ("sim.stall.drained_cycles", st.Sim_stats.drained);
      ("sim.config_stall_cycles", s.Sim_stats.config_stall_cycles);
      ("sim.config_queue_stall_cycles", s.Sim_stats.config_queue_stall_cycles);
      ("sim.accel_busy_cycles", s.Sim_stats.accel_busy_cycles);
    ]

let simulate cfg trace =
  Layers.time "pipeline.run"
    ~work:(function
      | Ok o -> float_of_int (Pipeline.stats_of_outcome o).Sim_stats.committed
      | Error _ -> 0.)
    (fun () -> Pipeline.run cfg trace)

let digest_stats s =
  Digest.to_hex
    (Digest.string (Tca_util.Json.to_string (Sim_stats.to_json s)))

let op stats label cfg trace =
  {
    Runner.label;
    counted = true;
    run =
      (fun () ->
        match simulate cfg trace with
        | Ok (Pipeline.Complete s) ->
            Hashtbl.replace stats label s;
            if Layers.tracing () then record s;
            Runner.ok (digest_stats s) (float_of_int s.Sim_stats.committed)
        | Ok (Pipeline.Partial { diag; _ }) | Error diag ->
            Error (Tca_util.Diag.to_string diag));
  }

let label name c = name ^ "/" ^ Config.coupling_name c

let ops env =
  let couplings units =
    List.map (fun c ->
        let cfg = Config.with_coupling cfg c in
        (c, match units with None -> cfg | Some u -> Config.with_tca_units cfg u))
      Config.all_couplings
  in
  let pair_ops (e : Inputs.entry) =
    op env.stats (e.Inputs.name ^ "/base") cfg e.Inputs.pair.Tca_workloads.Meta.baseline
    :: List.map
         (fun (c, cfg) ->
           op env.stats (label e.Inputs.name c) cfg
             e.Inputs.pair.Tca_workloads.Meta.accelerated)
         (couplings e.Inputs.units)
  in
  let synthetic = List.hd env.entries in
  List.concat_map pair_ops env.entries
  @ List.concat_map
      (fun (vname, unit) ->
        List.map
          (fun (c, cfg) ->
            op env.stats
              (label ("synthetic+" ^ vname) c)
              cfg synthetic.Inputs.pair.Tca_workloads.Meta.accelerated)
          (couplings (Some [| unit |])))
      config_units

(* Median |model - simulator| speedup error over the single-unit entries
   and the four couplings, with the paper-default drain estimator. *)
let model_error_of entries stats =
  let errors =
    List.concat_map
      (fun (e : Inputs.entry) ->
        let find l = Hashtbl.find stats l in
        let baseline = find (e.Inputs.name ^ "/base") in
        let core =
          Tca_experiments.Exp_common.model_core_of cfg ~ipc:baseline.Sim_stats.ipc
        in
        let scenario =
          Tca_experiments.Exp_common.scenario_of_meta
            e.Inputs.pair.Tca_workloads.Meta.meta ~latency:e.Inputs.latency
        in
        List.map
          (fun c ->
            let sim =
              Sim_stats.speedup_exn ~baseline ~accelerated:(find (label e.Inputs.name c))
            in
            let model =
              Layers.time "model.speedup" ~work:(fun _ -> 1.) (fun () ->
                  Tca_model.Equations.speedup_exn core scenario
                    (Tca_experiments.Exp_common.mode_of_coupling c))
            in
            100. *. Float.abs (model -. sim) /. sim)
          Config.all_couplings)
      (List.filter (fun (e : Inputs.entry) -> List.mem e.Inputs.name error_names) entries)
  in
  Tca_util.Stats.median_exn (Array.of_list errors)

let model_error env = model_error_of env.entries env.stats

(* The headline figure is taken on the pinned seed's pairs, so it
   repeats exactly across runs and seeds. Runs on another seed, and the
   other workloads, simulate those pairs afresh after their timed
   passes. *)
let model_error_pinned () =
  let entries = List.map (Inputs.generate_raw ~seed:Pins.default_seed) error_names in
  let env = { entries; stats = Hashtbl.create 16 } in
  List.iter
    (fun op -> ignore (op.Runner.run ()))
    (List.filter (fun op -> String.index_opt op.Runner.label '+' = None) (ops env));
  model_error env

let extras _env =
  let sum k = Option.value (Hashtbl.find_opt sums k) ~default:0. in
  let cycles = sum "sim.cycles" in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []
  @ [ ("sim.ipc", if cycles > 0. then sum "sim.committed" /. cycles else 0.) ]

let spec ~seed =
  {
    Runner.setup = setup ~seed;
    setup_reps = 1;
    ops;
    pins = (if seed = Pins.default_seed then Some Pins.sim_steady else None);
    post = (fun _ -> []);
    model_error =
      (if seed = Pins.default_seed then model_error else fun _ -> model_error_pinned ());
    extras;
  }
