(* Command-line interface to the TCA analytical model, the core
   simulator, and the paper-reproduction experiments. *)

open Cmdliner

(* --- diagnostics plumbing --- *)

let die d =
  prerr_endline ("tca: error: " ^ Tca_util.Diag.to_string d);
  exit (Tca_util.Diag.exit_code d)

let or_die = function Ok x -> x | Error d -> die d

(* Every command body runs under this wrapper so a [Diag.Error] escaping
   an [_exn] convenience call still maps to the documented exit code
   instead of an uncaught-exception backtrace. *)
let protect f = try f () with Tca_util.Diag.Error d -> die d

(* A saved trace file; an unreadable or malformed one is a Parse
   diagnostic (exit 2). *)
let load_trace path =
  try Tca_uarch.Trace.load path
  with Failure message | Sys_error message ->
    die (Tca_util.Diag.Parse { field = "trace file"; input = path; message })

(* --- shared argument parsers --- *)

let core_arg =
  let parse s =
    match Tca_model.Presets.by_name s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown core %S (expected %s)" s
                (String.concat ", " Tca_model.Presets.names)))
  in
  let print fmt c = Tca_model.Params.pp_core fmt c in
  Arg.conv (parse, print)

let core_t =
  Arg.(
    value
    & opt core_arg Tca_model.Presets.hp_core
    & info [ "core" ] ~docv:"CORE" ~doc:"Core preset: hp, lp or a72.")

(* A float parser that applies a [Diag] check, so "nan", "inf" and
   out-of-domain values are rejected at the command line with the same
   diagnostics the library produces. *)
let checked_float ~field check =
  let parse s =
    match float_of_string_opt s with
    | None ->
        Error
          (`Msg (Printf.sprintf "%s: expected a number, got %S" field s))
    | Some f -> Tca_util.Diag.error_to_msg (check f)
  in
  Arg.conv (parse, Format.pp_print_float)

let fraction_arg ~field =
  checked_float ~field (Tca_util.Diag.in_range ~field ~lo:0.0 ~hi:1.0)

let non_negative_arg ~field =
  checked_float ~field (Tca_util.Diag.non_negative ~field)

let positive_arg ~field =
  checked_float ~field (Tca_util.Diag.positive ~field)

let drain_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "auto" -> Ok Tca_interval.Drain.Auto
    | "refill" -> Ok Tca_interval.Drain.Refill_aware
    | s -> (
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f >= 0.0 ->
            Ok (Tca_interval.Drain.Fixed f)
        | Some _ | None ->
            Error
              (`Msg
                 "expected 'auto', 'refill' or a finite non-negative \
                  cycle count"))
  in
  let print fmt = function
    | Tca_interval.Drain.Auto -> Format.pp_print_string fmt "auto"
    | Tca_interval.Drain.Refill_aware -> Format.pp_print_string fmt "refill"
    | Tca_interval.Drain.Fixed f -> Format.fprintf fmt "%g" f
  in
  Arg.conv (parse, print)

let drain_t =
  Arg.(
    value
    & opt drain_arg Tca_interval.Drain.Auto
    & info [ "drain" ] ~docv:"DRAIN"
        ~doc:
          "Window-drain estimator: 'auto' (paper power-law default), \
           'refill' (decoupled-front-end limit) or an explicit cycle \
           count.")

(* --- telemetry plumbing --- *)

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the run, loadable in \
           Perfetto (ui.perfetto.dev) or chrome://tracing and readable by \
           $(b,tca trace-report).")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the counters and histograms computed from the run's \
              telemetry events as indented JSON.")

let json_t =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print run statistics as JSON on stdout instead of the \
              human-readable form.")

(* A sink only when some telemetry output was requested: the [None]
   path keeps instrumented code on its zero-cost branch. *)
let telemetry_sink ~trace ~metrics =
  match (trace, metrics) with
  | None, None -> None
  | _ -> Some (Tca_telemetry.Sink.create ())

(* The requested files, both from the sink's events. *)
let write_telemetry ~trace ~metrics sink =
  Option.iter
    (fun path -> or_die (Tca_telemetry.Exporter.write_chrome_trace sink path))
    trace;
  Option.iter
    (fun path -> or_die (Tca_telemetry.Exporter.write_metrics_json sink path))
    metrics

let with_telemetry ~trace ~metrics f =
  let telemetry = telemetry_sink ~trace ~metrics in
  let result = f telemetry in
  Option.iter (write_telemetry ~trace ~metrics) telemetry;
  result

let mode_t =
  let parse s =
    match Tca_model.Mode.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "expected NL_NT, L_NT, NL_T or L_T")
  in
  Arg.(
    value
    & opt (conv (parse, Tca_model.Mode.pp)) Tca_model.Mode.L_T
    & info [ "mode" ] ~docv:"MODE" ~doc:"TCA coupling mode.")

(* --- tca modes --- *)

let modes_cmd =
  let doc = "List the four TCA coupling modes and their hardware costs." in
  let run () =
    Tca_util.Table.print
      ~headers:[ "mode"; "leading"; "trailing"; "hardware required" ]
      (List.map
         (fun m ->
           [
             Tca_model.Mode.to_string m;
             (if Tca_model.Mode.allows_leading m then "overlap" else "drain");
             (if Tca_model.Mode.allows_trailing m then "overlap" else "barrier");
             Tca_model.Mode.hardware_requirements m;
           ])
         Tca_model.Mode.all)
  in
  Cmd.v (Cmd.info "modes" ~doc) Term.(const run $ const ())

(* --- tca model --- *)

(* The (T1)-(T3) configuration-cost flags, shared by the commands that
   accept a modeled configuration mechanism (tca model, tca verify). *)
let t_config_t =
  Arg.(
    value
    & opt (some (non_negative_arg ~field:"t-config")) None
    & info [ "t-config" ] ~docv:"CYCLES"
        ~doc:
          "Per-invocation configuration cost in cycles (the (T1)-(T3) \
           terms); omitted, the scenario has no configuration cost and \
           the output is the plain eqs. (4)-(9).")

let config_mode_t =
  Arg.(
    value
    & opt (enum [ ("sync", `Sync); ("queued", `Queued); ("preprog", `Preprog) ])
        `Sync
    & info [ "config-mode" ] ~docv:"MODE"
        ~doc:
          "Configuration mechanism for --t-config: 'sync' CSR writes \
           (T1), 'queued' descriptors (T2) or 'preprog' one-time \
           programming (T3).")

let config_depth_t =
  Arg.(
    value & opt int 4
    & info [ "config-queue-depth" ] ~docv:"N"
        ~doc:"Descriptor-queue depth for --config-mode=queued.")

let config_invocations_t =
  Arg.(
    value & opt int 1000
    & info [ "config-invocations" ] ~docv:"N"
        ~doc:"Amortization horizon for --config-mode=preprog.")

let config_of_cli t_config config_mode depth invocations =
  match t_config with
  | None -> Tca_model.Params.No_config
  | Some t_config -> (
      match config_mode with
      | `Sync -> Tca_model.Params.Sync t_config
      | `Queued -> Tca_model.Params.Queued { t_config; depth }
      | `Preprog -> Tca_model.Params.Preprogrammed { t_config; invocations })

let model_cmd =
  let doc = "Evaluate the analytical model for one scenario." in
  let a_t =
    Arg.(
      required
      & opt (some (fraction_arg ~field:"a")) None
      & info [ "a" ] ~docv:"FRAC" ~doc:"Acceleratable fraction in [0,1].")
  in
  let v_t =
    Arg.(
      required
      & opt (some (fraction_arg ~field:"v")) None
      & info [ "v" ] ~docv:"FREQ"
          ~doc:"Invocation frequency (invocations per instruction).")
  in
  let factor_t =
    Arg.(
      value
      & opt (some (positive_arg ~field:"factor")) None
      & info [ "factor"; "A" ] ~docv:"A" ~doc:"Acceleration factor.")
  in
  let latency_t =
    Arg.(
      value
      & opt (some (non_negative_arg ~field:"latency")) None
      & info [ "latency" ] ~docv:"CYCLES"
          ~doc:"Explicit accelerator latency per invocation.")
  in
  (* The two ways to give the accelerator's speed exclude each other:
     asking for both is a usage error (exit 124). *)
  let accel_t =
    let check factor latency =
      match (factor, latency) with
      | Some f, None -> `Ok (Tca_model.Params.Factor f)
      | None, Some l -> `Ok (Tca_model.Params.Latency l)
      | None, None -> `Ok (Tca_model.Params.Factor 3.0)
      | Some _, Some _ ->
          `Error (true, "--factor and --latency are mutually exclusive")
    in
    Term.(ret (const check $ factor_t $ latency_t))
  in
  let run core a v accel t_config config_mode depth invocations drain =
    protect @@ fun () ->
    let config = config_of_cli t_config config_mode depth invocations in
    let s = or_die (Tca_model.Params.scenario ~drain ~config ~a ~v ~accel ()) in
    Format.printf "core:     %a@." Tca_model.Params.pp_core core;
    Format.printf "scenario: %a@." Tca_model.Params.pp_scenario s;
    let t = or_die (Tca_model.Equations.interval_times core s) in
    Format.printf
      "interval: baseline %.1f cyc, accel %.1f, non-accel %.1f, drain %.1f, \
       rob-fill %.1f, commit %.1f@."
      t.Tca_model.Equations.t_baseline t.Tca_model.Equations.t_accl
      t.Tca_model.Equations.t_non_accl t.Tca_model.Equations.t_drain
      t.Tca_model.Equations.t_rob_fill t.Tca_model.Equations.t_commit;
    Tca_util.Table.print ~headers:[ "mode"; "speedup" ]
      (List.map
         (fun (m, sp) ->
           [ Tca_model.Mode.to_string m; Tca_util.Table.float_cell sp ])
         (or_die (Tca_model.Equations.speedups core s)));
    let best, sp = or_die (Tca_model.Equations.best_mode core s) in
    Format.printf "best mode: %s (%.3fx); naive replace-the-region estimate: \
                   %.3fx@."
      (Tca_model.Mode.to_string best)
      sp
      (or_die (Tca_model.Equations.ideal_speedup core s));
    match config with
    | Tca_model.Params.No_config -> ()
    | _ ->
        Format.printf
          "break-even granularity (smallest g = a/v with speedup >= 1):@.";
        Tca_util.Table.print ~headers:[ "mode"; "break-even g" ]
          (List.map
             (fun m ->
               [
                 Tca_model.Mode.to_string m;
                 (match
                    or_die
                      (Tca_model.Equations.config_break_even core ~a ~accel
                         ~config m)
                  with
                 | Some g -> Printf.sprintf "%.0f" g
                 | None -> ">1e9");
               ])
             Tca_model.Mode.all)
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(
      const run $ core_t $ a_t $ v_t $ accel_t $ t_config_t
      $ config_mode_t $ config_depth_t $ config_invocations_t $ drain_t)

(* --- engine plumbing (tca run / tca list / tca profile) --- *)

let registry () = Tca_experiments.Jobs.registry ()

(* Merged-telemetry export of [tca run]: the per-job sinks are joined
   into the host sink (which carries the scheduler's own phase spans on
   the calling domain's lane) in job order, so the files are identical
   whatever --jobs was (host phase spans first, then each job's events
   in input order). *)
let export_engine_telemetry ~trace ~metrics ~host outcomes =
  Option.iter
    (fun into ->
      Tca_telemetry.Timing.with_span host "telemetry.merge" (fun () ->
          Tca_engine.Scheduler.join_telemetry ~into outcomes);
      write_telemetry ~trace ~metrics into)
    host

(* All --out artifacts go through the same temp+rename path as the
   result cache: an interrupted run leaves either the previous file or
   the complete new one, never a truncated view. *)
let write_text path contents = or_die (Tca_util.Atomic_file.write path contents)

(* --- tca design --- *)

let design_cmd =
  let doc =
    "Full design-space report for one scenario: four-mode speedups, \
     Pareto front over hardware cost, energy verdicts and parameter \
     sensitivity."
  in
  let a_t =
    Arg.(
      required
      & opt (some (fraction_arg ~field:"a")) None
      & info [ "a" ] ~docv:"FRAC" ~doc:"Acceleratable fraction in [0,1].")
  in
  let v_t =
    Arg.(
      required
      & opt (some (fraction_arg ~field:"v")) None
      & info [ "v" ] ~docv:"FREQ" ~doc:"Invocation frequency.")
  in
  let factor_t =
    Arg.(
      value
      & opt (positive_arg ~field:"factor") 3.0
      & info [ "factor"; "A" ] ~doc:"Acceleration factor.")
  in
  let static_t =
    Arg.(
      value
      & opt (non_negative_arg ~field:"static-power") 0.5
      & info [ "static-power" ] ~doc:"Static power, energy units per cycle.")
  in
  let run core a v factor static_power drain =
    protect @@ fun () ->
    let s =
      or_die
        (Tca_model.Params.scenario ~drain ~a ~v
           ~accel:(Tca_model.Params.Factor factor) ())
    in
    let designs = Tca_model.Hw_cost.designs core s in
    let front = Tca_model.Hw_cost.pareto_front designs in
    let verdicts =
      Tca_model.Energy.evaluate
        (Tca_model.Energy.make ~static_power ())
        core s
    in
    Tca_util.Table.print
      ~headers:[ "mode"; "speedup"; "hw cost"; "rel. energy"; "EDP"; "status" ]
      (List.map2
         (fun (d : Tca_model.Hw_cost.design) (e : Tca_model.Energy.verdict) ->
           [
             Tca_model.Mode.to_string d.Tca_model.Hw_cost.mode;
             Tca_util.Table.float_cell d.Tca_model.Hw_cost.speedup;
             Tca_util.Table.float_cell ~decimals:2 d.Tca_model.Hw_cost.cost;
             Tca_util.Table.float_cell e.Tca_model.Energy.relative_energy;
             Tca_util.Table.float_cell e.Tca_model.Energy.edp;
             (if
                List.exists
                  (fun (f : Tca_model.Hw_cost.design) ->
                    f.Tca_model.Hw_cost.mode = d.Tca_model.Hw_cost.mode)
                  front
              then "pareto"
              else "dominated");
           ])
         designs verdicts);
    let best, sp = or_die (Tca_model.Equations.best_mode core s) in
    Format.printf
      "best: %s (%.3fx); energy break-even speedup %.3f; decision stable \
       under +/-20%%: %b@."
      (Tca_model.Mode.to_string best)
      sp
      (Tca_model.Energy.energy_break_even_speedup
         (Tca_model.Energy.make ~static_power ())
         core s)
      (or_die (Tca_model.Sensitivity.decision_stable core s))
  in
  Cmd.v (Cmd.info "design" ~doc)
    Term.(const run $ core_t $ a_t $ v_t $ factor_t $ static_t $ drain_t)

(* --- shared workload selection (tca simulate / tca sim / tca trace) --- *)

let workload_conv = Arg.enum Tca_experiments.Exp_common.workload_kinds

let workload_info =
  Arg.info [ "workload" ] ~docv:"KIND"
    ~doc:"synthetic, heap, dgemm, hashmap, regex or strfn."

let size_info =
  Arg.info [ "size" ]
    ~doc:
      "Workload size: chunks (synthetic), app instrs per invocation \
       (heap/hashmap/regex/strfn) or matrix dimension (dgemm); 0 = \
       default."

let sim_workload_t =
  Arg.(
    value & opt workload_conv Tca_experiments.Exp_common.Heap & workload_info)

let sim_size_t = Arg.(value & opt int 0 & size_info)

(* --- tca simulate --- *)

let simulate_cmd =
  let doc =
    "Run a workload's baseline and accelerated traces through the \
     cycle-level core simulator under all four couplings and compare \
     with the model. Prints the $(b,simulate.)$(i,KIND) artifact of \
     $(b,tca run), regenerated at --size."
  in
  let run workload size =
    protect @@ fun () ->
    print_string
      (Tca_engine.Artifact.to_text
         (Tca_experiments.Exp_common.simulate_artifact ~size workload))
  in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const run $ sim_workload_t $ sim_size_t)

(* --- tca sim --- *)

let sim_cmd =
  let doc =
    "Run one trace through the cycle-level simulator under a single \
     coupling mode: a saved TRACE file, or else a generated workload's \
     accelerated (or --baseline) trace. Optionally exports a Chrome \
     trace, a metrics snapshot and JSON statistics."
  in
  let file_t =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A saved trace file (see $(b,tca trace)); excludes --workload, \
             --size and --baseline.")
  in
  let workload_t =
    Arg.(value & opt (some ~none:"heap" workload_conv) None & workload_info)
  in
  let size_t = Arg.(value & opt (some ~none:"0" int) None & size_info) in
  let baseline_t =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:
            "Simulate the workload's baseline (software-only) trace \
             instead of the accelerated one.")
  in
  let max_cycles_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:
            "Watchdog cycle budget; when exceeded the run stops and the \
             statistics collected so far are reported as partial. Default: \
             derived from the trace length.")
  in
  let run file workload size baseline mode max_cycles trace_out metrics_out
      json =
    protect @@ fun () ->
    let cfg = Tca_experiments.Exp_common.validation_core () in
    let trace, meta =
      match file with
      | Some file -> (load_trace file, None)
      | None ->
          let pair, _ =
            Tca_experiments.Exp_common.workload_pair ~cfg ?size
              (Option.value workload
                 ~default:Tca_experiments.Exp_common.Heap)
          in
          if baseline then (pair.Tca_workloads.Meta.baseline, None)
          else
            ( pair.Tca_workloads.Meta.accelerated,
              Some pair.Tca_workloads.Meta.meta )
    in
    let cfg =
      Tca_uarch.Config.with_coupling cfg
        (Tca_experiments.Exp_common.coupling_of_mode mode)
    in
    let cfg = { cfg with Tca_uarch.Config.max_cycles } in
    let partial =
      with_telemetry ~trace:trace_out ~metrics:metrics_out @@ fun telemetry ->
      let stats, partial =
        match or_die (Tca_uarch.Pipeline.run ?telemetry cfg trace) with
        | Tca_uarch.Pipeline.Complete stats -> (stats, None)
        | Tca_uarch.Pipeline.Partial { stats; diag } -> (stats, Some diag)
      in
      if json then
        print_endline
          (Tca_util.Json.to_string_indent (Tca_uarch.Sim_stats.to_json stats))
      else begin
        Option.iter (Format.printf "%a@." Tca_workloads.Meta.pp) meta;
        Format.printf "%a@." Tca_uarch.Sim_stats.pp stats
      end;
      partial
    in
    match partial with
    | None -> ()
    | Some diag ->
        prerr_endline ("tca: warning: " ^ Tca_util.Diag.to_string diag);
        exit (Tca_util.Diag.exit_code diag)
  in
  (* A TRACE file and the workload selectors are two ways to name the
     one trace to run; giving both is a usage error (exit 124). *)
  let check file workload size baseline =
    if file <> None && (workload <> None || size <> None || baseline) then
      `Error (true, "a TRACE file excludes --workload, --size and --baseline")
    else `Ok (run file workload size baseline)
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      ret (const check $ file_t $ workload_t $ size_t $ baseline_t)
      $ mode_t $ max_cycles_t $ trace_out_t $ metrics_out_t $ json_t)

(* --- tca trace --- *)

let trace_cmd =
  let doc =
    "Generate a workload's baseline and accelerated traces and save them \
     in the textual interchange format."
  in
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Output prefix: writes PREFIX.base.trace and PREFIX.accel.trace.")
  in
  let run workload out size =
    protect @@ fun () ->
    let cfg = Tca_experiments.Exp_common.validation_core () in
    let pair, _ =
      Tca_experiments.Exp_common.workload_pair ~cfg ~size workload
    in
    let base_path = out ^ ".base.trace" in
    let accel_path = out ^ ".accel.trace" in
    Tca_uarch.Trace.save base_path pair.Tca_workloads.Meta.baseline;
    Tca_uarch.Trace.save accel_path pair.Tca_workloads.Meta.accelerated;
    Format.printf "%a@.wrote %s and %s@." Tca_workloads.Meta.pp
      pair.Tca_workloads.Meta.meta base_path accel_path
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ sim_workload_t $ out_t $ sim_size_t)

(* --- tca analyze --- *)

let analyze_cmd =
  let doc =
    "Statically analyze a saved trace: dependence-DAG statistics, \
     critical-path/throughput/ROB cycle lower bounds, a lint pass, and \
     (with --baseline) the analytical-model inputs derived from the \
     trace pair."
  in
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let baseline_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline (software-only) trace of the same workload; enables \
             derivation of the model inputs a, v and the accelerator \
             latency from the pair.")
  in
  let lint_t =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Print only the lint findings and exit 1 when any finding of \
             severity warning or higher is present.")
  in
  let bounds_t =
    Arg.(
      value & flag
      & info [ "bounds" ] ~doc:"Print only the static performance bounds.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the trace through the cycle-level simulator and exit \
             1 unless the static cycles lower bound holds.")
  in
  let config_break_even_t =
    Arg.(
      value
      & opt (some (positive_arg ~field:"config-break-even")) None
      & info [ "config-break-even" ] ~docv:"G"
          ~doc:
            "Modeled configuration break-even granularity (instructions \
             per invocation, e.g. from $(b,tca model --t-config)); warn \
             when the trace invokes its TCA more often than that.")
  in
  (* Individual warnings/errors are actionable and printed one per line;
     info findings are advisory and routinely number in the thousands on
     randomized traces, so they are tallied per rule instead. *)
  let print_findings findings =
    let info, actionable =
      List.partition
        (fun f -> Tca_analysis.Finding.severity f = Tca_analysis.Finding.Info)
        findings
    in
    List.iter
      (fun f -> print_endline (Tca_analysis.Finding.to_string f))
      actionable;
    let tally = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let r = Tca_analysis.Finding.rule_name f in
        Hashtbl.replace tally r
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally r)))
      info;
    Hashtbl.fold (fun r c acc -> (r, c) :: acc) tally []
    |> List.sort compare
    |> List.iter (fun (r, c) -> Printf.printf "info %s: %d finding(s)\n" r c)
  in
  let run file baseline_file mode lint_only bounds_only check
      config_break_even json =
    protect @@ fun () ->
    let trace = load_trace file in
    let baseline = Option.map load_trace baseline_file in
    let cfg =
      Tca_uarch.Config.with_coupling
        (Tca_uarch.Config.hp ())
        (Tca_experiments.Exp_common.coupling_of_mode mode)
    in
    let report =
      Tca_analysis.Analysis.analyze ?baseline ?config_break_even ~cfg trace
    in
    let dirty = not (Tca_analysis.Lint.clean report.Tca_analysis.Analysis.findings) in
    let findings = report.Tca_analysis.Analysis.findings in
    let bounds = report.Tca_analysis.Analysis.bounds in
    (if lint_only then
       if json then
         print_endline
           (Tca_util.Json.to_string_indent
              (Tca_analysis.Lint.findings_to_json findings))
       else print_findings findings
     else if bounds_only then
       if json then
         print_endline
           (Tca_util.Json.to_string_indent (Tca_analysis.Bounds.to_json bounds))
       else Format.printf "%a@." Tca_analysis.Bounds.pp bounds
     else if json then
       print_endline
         (Tca_util.Json.to_string_indent
            (Tca_analysis.Analysis.report_to_json report))
     else begin
       let d = report.Tca_analysis.Analysis.dag_stats in
       Format.printf
         "dag: %d nodes, %d true-reg, %d true-mem, %d mem-data, %d anti, \
          %d output edges; depth %d@."
         d.Tca_analysis.Dag.nodes d.Tca_analysis.Dag.true_reg
         d.Tca_analysis.Dag.true_mem d.Tca_analysis.Dag.mem_data
         d.Tca_analysis.Dag.anti d.Tca_analysis.Dag.output
         d.Tca_analysis.Dag.depth;
       Format.printf "%a@." Tca_analysis.Bounds.pp bounds;
       (match report.Tca_analysis.Analysis.derived with
       | Some dv -> Format.printf "%a@." Tca_analysis.Derive.pp dv
       | None -> ());
       (match report.Tca_analysis.Analysis.derive_error with
       | Some e -> Printf.printf "derivation failed: %s\n" e
       | None -> ());
       print_findings findings
     end);
    let check_failed =
      check
      &&
      match or_die (Tca_uarch.Pipeline.run cfg trace) with
      | Tca_uarch.Pipeline.Complete stats ->
          let sim = stats.Tca_uarch.Sim_stats.cycles in
          let lb = bounds.Tca_analysis.Bounds.cycles_lower_bound in
          let ok = lb <= sim in
          Printf.printf "check: static lower bound %d %s simulated %d cycles\n"
            lb
            (if ok then "<=" else ">")
            sim;
          not ok
      | Tca_uarch.Pipeline.Partial { diag; _ } ->
          prerr_endline
            ("tca: warning: bound check inconclusive, simulation was \
              partial: " ^ Tca_util.Diag.to_string diag);
          false
    in
    if (lint_only && dirty) || check_failed then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ file_t $ baseline_t $ mode_t $ lint_t $ bounds_t $ check_t
      $ config_break_even_t $ json_t)

(* --- tca run (engine) --- *)

let quick_t =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller validation sweeps.")

let run_cmd =
  let doc =
    "Run registered experiment jobs through the engine: deterministic \
     multicore scheduling (--jobs), content-addressed result caching \
     (--cache-dir) and uniform text/CSV/JSON artifact views. With no \
     JOB arguments the whole registered suite runs."
  in
  let names_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"JOB"
          ~doc:"Job names (see $(b,tca list)); empty = every job.")
  in
  let jobs_t =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Total parallelism: N-1 worker domains plus the calling \
             domain. Artifacts are bit-identical for every N.")
  in
  let cache_dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the content-addressed result cache in DIR; a warm \
             run re-serves identical artifacts without re-executing.")
  in
  let csv_t =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Print the artifacts' CSV views instead of text.")
  in
  (* The two output views exclude each other: asking for both is a usage
     error (exit 124), not malformed input. *)
  let views_t =
    let check json csv =
      if json && csv then
        `Error (true, "--json and --csv are mutually exclusive")
      else `Ok (json, csv)
    in
    Term.(ret (const check $ json_t $ csv_t))
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write NAME.txt, NAME.csv and NAME.json per job into DIR.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-job wall-clock budget, enforced cooperatively at job \
             checkpoints; a job over budget fails with exit-code-10 \
             semantics instead of wedging the run.")
  in
  let fail_fast_t =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "fail-fast" ]
                ~doc:
                  "Stop scheduling new jobs after the first failure; \
                   not-yet-started jobs are reported as skipped. Under \
                   --jobs N the skipped set depends on timing." );
            ( false,
              info [ "keep-going" ]
                ~doc:
                  "Run every job to an outcome even when some fail (the \
                   default); the failure report is bit-identical across \
                   --jobs values." );
          ])
  in
  let failures_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "failures" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable JSON failure report (counts plus \
             one record per failed job) to FILE, atomically; written on \
             success too, with an empty failure list.")
  in
  let inject_t =
    Arg.(
      value & opt_all string []
      & info [ "inject" ] ~docv:"JOB=FAULT"
          ~doc:
            "Fault-injection (testing): make JOB misbehave. FAULT is \
             raise, hang or corrupt. Repeatable.")
  in
  let run names jobs cache_dir quick (json, csv) out trace_out metrics_out
      deadline fail_fast failures_out inject =
    protect @@ fun () ->
    if jobs < 1 then
      die
        (Tca_util.Diag.Invalid { field = "--jobs"; message = "must be >= 1" });
    let plan =
      List.map (fun s -> or_die (Tca_engine.Inject.parse_spec s)) inject
    in
    let r = registry () in
    let js =
      match names with
      | [] -> Tca_engine.Registry.all r
      | names -> or_die (Tca_engine.Registry.resolve r names)
    in
    let js = Tca_engine.Inject.wrap plan js in
    let policy = { Tca_engine.Scheduler.deadline_s = deadline; fail_fast } in
    let cache = Tca_engine.Cache.create ?dir:cache_dir () in
    let host = telemetry_sink ~trace:trace_out ~metrics:metrics_out in
    let outcomes =
      Tca_engine.Scheduler.run ~cache ~policy ~quick
        ~collect_telemetry:(Option.is_some host) ?host_telemetry:host
        ~jobs js
    in
    export_engine_telemetry ~trace:trace_out ~metrics:metrics_out ~host
      outcomes;
    (* Surviving artifacts are exported even when other jobs failed:
       one poisoned point costs one artifact, not the sweep. *)
    Option.iter
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        List.iter
          (fun (o : Tca_engine.Scheduler.outcome) ->
            match Tca_engine.Scheduler.artifact o with
            | None -> ()
            | Some a ->
                let base =
                  Filename.concat dir
                    o.Tca_engine.Scheduler.job.Tca_engine.Job.name
                in
                write_text (base ^ ".txt") (Tca_engine.Artifact.to_text a);
                write_text (base ^ ".csv") (Tca_engine.Artifact.to_csv a);
                write_text (base ^ ".json")
                  (Tca_util.Json.to_string_indent
                     (Tca_engine.Artifact.to_json a)
                  ^ "\n"))
          outcomes)
      out;
    Option.iter
      (fun path ->
        write_text path
          (Tca_util.Json.to_string_indent
             (Tca_engine.Scheduler.failure_report outcomes)
          ^ "\n"))
      failures_out;
    let artifacts = List.filter_map Tca_engine.Scheduler.artifact outcomes in
    (if json then
       print_endline
         (Tca_util.Json.to_string_indent
            (match artifacts with
            | [ a ] -> Tca_engine.Artifact.to_json a
            | l -> Tca_util.Json.List (List.map Tca_engine.Artifact.to_json l)))
     else if csv then
       List.iteri
         (fun i (a : Tca_engine.Artifact.t) ->
           if List.length artifacts > 1 then begin
             if i > 0 then print_newline ();
             Printf.printf "# job %s\n" a.Tca_engine.Artifact.job
           end;
           print_string (Tca_engine.Artifact.to_csv a))
         artifacts
     else
       List.iteri
         (fun i a ->
           if i > 0 then print_newline ();
           print_string (Tca_engine.Artifact.to_text a))
         artifacts);
    if cache_dir <> None then
      Printf.eprintf "tca: cache: %d hit(s), %d miss(es)%s\n%!"
        (Tca_engine.Cache.hits cache)
        (Tca_engine.Cache.misses cache)
        (match Tca_engine.Cache.quarantined cache with
        | 0 -> ""
        | n -> Printf.sprintf ", %d quarantined" n);
    match Tca_engine.Scheduler.first_failure outcomes with
    | None -> ()
    | Some d ->
        let failed =
          List.length
            (List.filter
               (fun (o : Tca_engine.Scheduler.outcome) ->
                 match o.Tca_engine.Scheduler.status with
                 | Tca_engine.Scheduler.Failed _ -> true
                 | _ -> false)
               outcomes)
        and skipped =
          List.length
            (List.filter
               (fun (o : Tca_engine.Scheduler.outcome) ->
                 o.Tca_engine.Scheduler.status = Tca_engine.Scheduler.Skipped)
               outcomes)
        in
        Printf.eprintf "tca: %d job(s) failed%s; first: %s\n%!" failed
          (if skipped > 0 then Printf.sprintf ", %d skipped" skipped else "")
          (Tca_util.Diag.to_string d);
        exit (Tca_util.Diag.exit_code d)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ names_t $ jobs_t $ cache_dir_t $ quick_t $ views_t $ out_t
      $ trace_out_t $ metrics_out_t $ deadline_t $ fail_fast_t $ failures_t
      $ inject_t)

(* --- tca list --- *)

let list_cmd =
  let doc = "List every registered experiment job." in
  let job_family (j : Tca_engine.Job.t) =
    if String.length j.Tca_engine.Job.name >= 9
       && String.sub j.Tca_engine.Job.name 0 9 = "simulate."
    then "simulate"
    else "figure"
  in
  let run json =
    let r = registry () in
    let jobs = Tca_engine.Registry.all r in
    if json then
      print_endline
        (Tca_util.Json.to_string_indent
           (Tca_util.Json.List
              (List.map
                 (fun (j : Tca_engine.Job.t) ->
                   Tca_util.Json.Obj
                     [
                       ("name", Tca_util.Json.String j.Tca_engine.Job.name);
                       ("family", Tca_util.Json.String (job_family j));
                       ("title", Tca_util.Json.String j.Tca_engine.Job.title);
                       ( "params",
                         Tca_util.Json.Obj
                           (List.map
                              (fun (k, v) -> (k, Tca_util.Json.String v))
                              j.Tca_engine.Job.params) );
                       (* The cache/identity fingerprint of each input
                          shape, so external tooling can address cached
                          artifacts without re-deriving the scheme. *)
                       ( "fingerprint",
                         Tca_util.Json.Obj
                           [
                             ( "full",
                               Tca_util.Json.String
                                 (Tca_engine.Job.fingerprint_digest j
                                    ~quick:false) );
                             ( "quick",
                               Tca_util.Json.String
                                 (Tca_engine.Job.fingerprint_digest j
                                    ~quick:true) );
                           ] );
                     ])
                 jobs)))
    else
      Tca_util.Table.print ~headers:[ "job"; "title" ]
        (List.map
           (fun (j : Tca_engine.Job.t) ->
             [ j.Tca_engine.Job.name; j.Tca_engine.Job.title ])
           jobs)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ json_t)

(* --- tca profile --- *)

let profile_cmd =
  let doc =
    "Profile a run of registered experiment jobs: execute them fresh \
     (no cache) with full instrumentation, then print a self-time \
     table attributing the wall-clock to decode, simulation, telemetry \
     fork/join, cache, scheduler overhead and other, plus per-domain \
     lane utilisation, task queue waits and GC pressure."
  in
  let names_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"JOB"
          ~doc:"Job names (see $(b,tca list)); empty = every job.")
  in
  let jobs_t =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Total parallelism: N-1 worker domains plus the calling \
             domain. The profile shows one lane per domain.")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the profile report as indented JSON to FILE \
                (atomically).")
  in
  let run names jobs quick json out trace_out =
    protect @@ fun () ->
    if jobs < 1 then
      die
        (Tca_util.Diag.Invalid { field = "--jobs"; message = "must be >= 1" });
    let r = registry () in
    let js =
      match names with
      | [] -> Tca_engine.Registry.all r
      | names -> or_die (Tca_engine.Registry.resolve r names)
    in
    let outcomes, host = Tca_engine.Scheduler.run_profiled ~quick ~jobs js in
    let profile = Tca_telemetry.Profiler.of_sink host in
    write_telemetry ~trace:trace_out ~metrics:None host;
    let profile_json () =
      Tca_util.Json.to_string_indent (Tca_telemetry.Profiler.to_json profile)
    in
    Option.iter (fun path -> write_text path (profile_json () ^ "\n")) out;
    if json then print_endline (profile_json ())
    else Format.printf "%a@." Tca_telemetry.Profiler.pp profile;
    match Tca_engine.Scheduler.first_failure outcomes with
    | None -> ()
    | Some d ->
        prerr_endline ("tca: warning: " ^ Tca_util.Diag.to_string d);
        exit (Tca_util.Diag.exit_code d)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ names_t $ jobs_t $ quick_t $ json_t $ out_t $ trace_out_t)

(* --- tca trace-report --- *)

let trace_report_cmd =
  let doc =
    "Summarize a Chrome trace_event file produced by --trace: stall-cycle \
     breakdown, accelerator-occupancy timeline, per-interval throughput \
     and wall-clock spans."
  in
  let file_t =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let run file =
    protect @@ fun () ->
    let report = or_die (Tca_telemetry.Report.of_file file) in
    Format.printf "%a@." Tca_telemetry.Report.pp report
  in
  Cmd.v (Cmd.info "trace-report" ~doc) Term.(const run $ file_t)

(* --- tca verify --- *)

let verify_cmd =
  let doc =
    "Prove a baseline/accelerated trace pair semantically equivalent \
     from their symbolic effect summaries, audit the paper's modelling \
     assumptions against the pair, and exit 1 with a minimal divergence \
     witness when the proof fails."
  in
  let target_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD|BASELINE"
          ~doc:
            "A generated workload pair (synthetic, heap, dgemm, hashmap, \
             regex, strfn), a multi-unit scenario (multi-alternating, \
             multi-chained, multi-contended), $(b,all) for the whole \
             family, or a saved baseline trace file (then a second \
             positional argument names the accelerated trace).")
  in
  let accel_file_t =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"ACCELERATED"
          ~doc:"Accelerated trace file, when the first argument is a file.")
  in
  let strategy_t =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("align", `Align); ("dataflow", `Dataflow) ]) `Auto
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Proof strategy: $(b,align) (instruction alignment with \
             per-invocation replaced regions), $(b,dataflow) (final \
             memory image at line granularity, for wholesale kernel \
             rewrites), or $(b,auto) to choose from the alignment \
             itself.")
  in
  let witness_t =
    Arg.(
      value & flag
      & info [ "witness" ]
          ~doc:
            "Print only the divergence witness as JSON (null when the \
             pair is equivalent).")
  in
  let run target accel_file size strategy t_config config_mode depth
      invocations witness json =
    protect @@ fun () ->
    let config = config_of_cli t_config config_mode depth invocations in
    (match Tca_model.Params.validate_config config with
    | Ok _ -> ()
    | Error d -> die d);
    let cfg = Tca_experiments.Exp_common.validation_core () in
    let line_bytes =
      cfg.Tca_uarch.Config.mem.Tca_uarch.Mem_hier.l1
        .Tca_uarch.Cache.line_bytes
    in
    let rob_size = cfg.Tca_uarch.Config.rob_size in
    let multi_pair kind =
      let sc = Tca_workloads.Multi_tca.generate (Tca_workloads.Multi_tca.config kind) in
      ( Tca_workloads.Multi_tca.kind_name kind,
        sc.Tca_workloads.Multi_tca.pair.Tca_workloads.Meta.baseline,
        sc.Tca_workloads.Multi_tca.pair.Tca_workloads.Meta.accelerated )
    in
    let multi_kind_of name =
      List.find_opt
        (fun k -> Tca_workloads.Multi_tca.kind_name k = name)
        Tca_workloads.Multi_tca.all_kinds
    in
    let pairs =
      match List.assoc_opt target Tca_experiments.Exp_common.workload_kinds with
      | Some kind ->
          let pair, _ =
            Tca_experiments.Exp_common.workload_pair ~cfg ~size kind
          in
          [ (target, pair.Tca_workloads.Meta.baseline,
             pair.Tca_workloads.Meta.accelerated) ]
      | None when target = "all" ->
          List.map
            (fun (name, kind) ->
              let pair, _ =
                Tca_experiments.Exp_common.workload_pair ~cfg ~size kind
              in
              (name, pair.Tca_workloads.Meta.baseline,
               pair.Tca_workloads.Meta.accelerated))
            Tca_experiments.Exp_common.workload_kinds
          @ List.map multi_pair Tca_workloads.Multi_tca.all_kinds
      | None -> (
          match multi_kind_of target with
          | Some kind -> [ multi_pair kind ]
          | None -> (
          match accel_file with
          | Some accel -> [ (target, load_trace target, load_trace accel) ]
          | None ->
              die
                (Tca_util.Diag.Parse
                   {
                     field = "verify target";
                     input = target;
                     message =
                       "not a workload name, and no accelerated trace \
                        file was given";
                   })))
    in
    let results =
      List.map
        (fun (name, baseline, accelerated) ->
          let baseline = baseline.Tca_uarch.Trace.instrs in
          let accelerated = accelerated.Tca_uarch.Trace.instrs in
          let report =
            Tca_analysis.Equiv.check ~line_bytes ~strategy ~baseline
              ~accelerated ()
          in
          let assumptions =
            Tca_analysis.Assume.audit ~line_bytes ~rob_size ~config ~baseline
              ~accelerated ()
          in
          (name, report, assumptions))
        pairs
    in
    (if witness then
       let js =
         List.map
           (fun (name, (r : Tca_analysis.Equiv.report), _) ->
             ( name,
               Tca_analysis.Equiv.(
                 match r.verdict with
                 | Equivalent -> Tca_util.Json.Null
                 | Divergent w -> witness_to_json w) ))
           results
       in
       print_endline
         (Tca_util.Json.to_string_indent
            (match js with [ (_, w) ] -> w | _ -> Tca_util.Json.Obj js))
     else if json then
       let js =
         List.map
           (fun (name, r, a) ->
             ( name,
               Tca_util.Json.Obj
                 [
                   ("equivalence", Tca_analysis.Equiv.report_to_json r);
                   ("assumptions", Tca_analysis.Assume.to_json a);
                 ] ))
           results
       in
       print_endline
         (Tca_util.Json.to_string_indent
            (match js with [ (_, one) ] -> one | _ -> Tca_util.Json.Obj js))
     else
       List.iter
         (fun (name, r, a) ->
           Format.printf "@[<v>%s:@,%a%a@]@." name
             Tca_analysis.Equiv.pp_report r Tca_analysis.Assume.pp a)
         results);
    if
      List.exists
        (fun (_, r, _) -> not (Tca_analysis.Equiv.equivalent r))
        results
    then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ target_t $ accel_file_t $ sim_size_t $ strategy_t
      $ t_config_t $ config_mode_t $ config_depth_t $ config_invocations_t
      $ witness_t $ json_t)

let () =
  let doc =
    "Analytical model for tightly-coupled accelerators (ISPASS 2020 \
     reproduction)."
  in
  let info = Cmd.info "tca" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            modes_cmd; model_cmd; design_cmd; simulate_cmd; sim_cmd;
            run_cmd; list_cmd; trace_cmd; analyze_cmd; verify_cmd;
            trace_report_cmd; profile_cmd;
          ]))
