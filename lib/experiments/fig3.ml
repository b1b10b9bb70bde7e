open Tca_uarch
open Tca_workloads
module A = Tca_engine.Artifact

type timeline = {
  mode : Tca_model.Mode.t;
  cycles : int;
  issued : int array;
}

(* Compute-only mix: a single short interval has no time to warm caches
   or predictors, and cold misses would mask the coupling effects the
   figure illustrates. *)
let app_config =
  {
    Codegen.model_friendly_config with
    Codegen.working_set_bytes = 512;
    load_every = 0;
    store_every = 0;
    dep_window = 6;
  }

let interval_trace ~leading ~trailing ~accel_latency =
  let rng = Tca_util.Prng.create 7 in
  let gen = Codegen.create ~config:app_config ~rng () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b leading;
  Trace.Builder.add b
    (Isa.accel ~compute_latency:accel_latency ~reads:[||] ~writes:[||] ());
  Codegen.emit_block gen b trailing;
  Trace.Builder.build b

let run ?telemetry ?par ?(trailing = 150) ?(accel_latency = 40) () =
  Tca_telemetry.Timing.with_span telemetry "fig3.run" @@ fun () ->
  let trace = interval_trace ~leading:150 ~trailing ~accel_latency in
  let timelines =
    Tca_telemetry.Timing.fan_out ?telemetry ?par
      (fun ~telemetry coupling ->
        (* One short interval: use a perfect predictor so the strip shows
           the TCA coupling effects, not cold-predictor noise. *)
        let cfg =
          {
            (Config.with_coupling (Exp_common.validation_core ()) coupling) with
            Config.bpred = Bpred.Perfect;
          }
        in
        let buf = ref [] in
        let probe =
          {
            Pipeline.on_cycle =
              (fun ~cycle:_ ~dispatched:_ ~issued ~executing:_
                   ~rob_occupancy:_ -> buf := issued :: !buf);
          }
        in
        let stats = Pipeline.run_exn ~probe ?telemetry cfg trace in
        {
          mode = Exp_common.mode_of_coupling coupling;
          cycles = stats.Sim_stats.cycles;
          issued = Array.of_list (List.rev !buf);
        })
      (Array.of_list Config.all_couplings)
  in
  Array.to_list timelines

let bar = [| ' '; '.'; ':'; '|'; '#' |]

let strip t =
  let n = Array.length t.issued in
  let buf = Buffer.create (n / 2) in
  let i = ref 0 in
  while !i < n do
    let a = t.issued.(!i) in
    let b = if !i + 1 < n then t.issued.(!i + 1) else a in
    let level = min 4 ((a + b + 1) / 2) in
    Buffer.add_char buf bar.(level);
    i := !i + 2
  done;
  Buffer.contents buf

let artifact timelines =
  A.make ~job:"fig3"
    ~title:
      "Fig. 3: per-cycle issue activity for one interval (leading + TCA + \
       trailing) under each mode"
    (A.Note
       "(each character = 2 cycles; ' ' idle, '.' low ILP ... '#' full \
        width)"
    :: List.map
         (fun t ->
           A.Note
             (Printf.sprintf "%-6s (%4d cycles) %s"
                (Tca_model.Mode.to_string t.mode)
                t.cycles (strip t)))
         timelines
    @ [
        A.Table
          (A.table ~in_text:false ~name:"timelines"
             ~headers:[ "mode"; "cycles"; "activity" ]
             (List.map
                (fun t ->
                  [
                    A.text (Tca_model.Mode.to_string t.mode);
                    A.int t.cycles;
                    A.text (strip t);
                  ])
                timelines));
      ])
