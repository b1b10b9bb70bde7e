(* Benchmark entry point.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload with a fixed amount of work derived from [S] (never
   bounded by elapsed time), checks its outputs, and prints as its last
   line one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with [--trace 0], the per-layer metrics of a
   separate traced pass with [--trace 1]. The line before it records the
   provenance of the result. *)

module Json = Tca_util.Json

let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("model_error_median_pct", "%");
  ]

let sim_counters =
  [
    "sim.cycles"; "sim.committed"; "sim.stall.rob_full_cycles";
    "sim.stall.iq_full_cycles"; "sim.stall.lsq_full_cycles";
    "sim.stall.serialize_cycles"; "sim.stall.redirect_cycles";
    "sim.stall.drained_cycles"; "sim.config_stall_cycles";
    "sim.config_queue_stall_cycles"; "sim.accel_busy_cycles";
  ]

let per_layer =
  [
    ("model.evals", "count"); ("model.busy_s", "s"); ("model.ns_per_eval", "ns");
    ("workloads.calls", "count"); ("workloads.busy_s", "s");
    ("workloads.ns_per_uop", "ns"); ("workloads.alloc_words_per_uop", "words");
    ("decode.calls", "count"); ("decode.busy_s", "s"); ("decode.ns_per_uop", "ns");
    ("pipeline.calls", "count"); ("pipeline.busy_s", "s");
    ("pipeline.ns_per_uop", "ns"); ("pipeline.ns_per_sim_cycle", "ns");
    ("pipeline.alloc_words_per_uop", "words");
  ]
  @ List.map
      (fun n -> (n, if n = "sim.committed" then "uops" else "cycles"))
      sim_counters
  @ [
      ("sim.ipc", "uops/cycle");
      ("analysis.equiv.busy_s", "s"); ("analysis.equiv.ns_per_instr", "ns");
      ("analysis.audit.busy_s", "s"); ("analysis.analyze.busy_s", "s");
      ("analysis.proved_ratio", "ratio");
      ("engine.wall_s", "s"); ("engine.job_busy_s", "s"); ("engine.idle_s", "s");
      ("engine.parallel_efficiency", "ratio"); ("engine.critical_job_s", "s");
      ("engine.failed", "count"); ("engine.retried", "count");
      ("cache.warm_hit_ratio", "ratio"); ("cache.warm_s", "s");
    ]
  @ List.map (fun n -> ("job." ^ n ^ ".s", "s")) W_suite.names
  @ List.map
      (fun c -> ("profile." ^ c ^ "_s", "s"))
      Tca_telemetry.Profiler.component_names
  @ [
      ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB"); ("host.spin_ms", "ms");
      ("host.raw_throughput_per_s", "1/s"); ("trace.overhead_pct", "%");
      ("trace.attributed_pct", "%");
    ]

let workloads = [ "sim-steady"; "suite-quick"; "verify-static"; "model-sweep" ]

(* Timed passes per ten requested seconds, sized on the reference host. *)
let passes_per_10s = function
  | "sim-steady" -> 3
  | "suite-quick" -> 2
  | "verify-static" -> 3
  | _ -> 16

(* Figures of the traced section, from the layer accumulators. Busy
   times are normalized like every other host time. *)
let layer_metrics extras =
  let f = Layers.factor () in
  let a = Layers.find in
  let per x y = if y > 0. then x /. y else 0. in
  let model =
    List.map a
      [ "model.grid"; "model.break_even"; "model.composed"; "model.swings"; "model.speedup" ]
  in
  let sum g = List.fold_left (fun s x -> s +. g x) 0. model in
  let m_evals = sum (fun x -> x.Layers.work) in
  let m_busy = f *. sum (fun x -> x.Layers.busy_s) in
  let busy (x : Layers.acc) = f *. x.Layers.busy_s in
  let layer prefix (x : Layers.acc) =
    [
      (prefix ^ ".calls", float_of_int x.Layers.calls);
      (prefix ^ ".busy_s", busy x);
      (prefix ^ ".ns_per_uop", 1e9 *. per (busy x) x.Layers.work);
    ]
  in
  let w = a "workloads.generate" and p = a "pipeline.run" in
  let cycles = Option.value (List.assoc_opt "sim.cycles" extras) ~default:0. in
  let equiv = a "analysis.equiv" in
  (* The benchmark's own spans (kernel samples, the collections it forces
     between ops) are neither program layers nor program time: coverage
     is program-layer time over the traced wall time less their time. *)
  let own n = List.mem n [ "host.spin"; "runtime.gc" ] in
  let busy_where keep =
    Hashtbl.fold (fun n x s -> if keep n then s +. x.Layers.busy_s else s) Layers.accs 0.
  in
  let own_busy = busy_where own and program_busy = busy_where (fun n -> not (own n)) in
  [
    ("model.evals", m_evals);
    ("model.busy_s", m_busy);
    ("model.ns_per_eval", 1e9 *. per m_busy m_evals);
    ("workloads.alloc_words_per_uop", per w.Layers.alloc_words w.Layers.work);
    ("pipeline.ns_per_sim_cycle", 1e9 *. per (busy p) cycles);
    ("pipeline.alloc_words_per_uop", per p.Layers.alloc_words p.Layers.work);
    ("analysis.equiv.busy_s", busy equiv);
    ("analysis.equiv.ns_per_instr", 1e9 *. per (busy equiv) equiv.Layers.work);
    ("analysis.audit.busy_s", busy (a "analysis.audit"));
    ("analysis.analyze.busy_s", busy (a "analysis.analyze"));
    ("host.spin_ms", 1000. *. Tca_util.Stats.median_exn (Array.of_list !Host.samples));
    ("trace.attributed_pct", 100. *. per program_busy (!Layers.traced_s -. own_busy));
  ]
  @ layer "workloads" w @ layer "decode" (a "decode") @ layer "pipeline" p

let run_workload ~workload ~seed ~passes ~trace ~domains =
  let model_error = W_sim.model_error_pinned in
  match workload with
  | "sim-steady" -> Runner.run_ops (W_sim.spec ~seed) ~passes ~trace
  | "suite-quick" -> Runner.run_ops (W_suite.spec ~domains ~model_error) ~passes ~trace
  | "verify-static" -> Runner.run_ops (W_verify.spec ~seed ~model_error) ~passes ~trace
  | "model-sweep" -> Runner.run_ops (W_model.spec ~model_error) ~passes ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- pins ------------------------------------------------------------ *)

let print_pins workload =
  let pass spec = Runner.run_pass (spec.Runner.ops (spec.Runner.setup ())) in
  let no_error () = nan in
  let timed =
    match workload with
    | "sim-steady" -> pass (W_sim.spec ~seed:Pins.default_seed)
    | "suite-quick" -> pass (W_suite.spec ~domains:1 ~model_error:no_error)
    | "model-sweep" -> pass (W_model.spec ~model_error:no_error)
    | w -> invalid_arg ("no pins for " ^ w)
  in
  List.iter
    (fun t ->
      match t.Runner.outcome with
      | Ok o -> Printf.printf "    (%S, %S);\n" t.Runner.t_label o.Runner.digest
      | Error e -> Printf.printf "    (* %s: %s *)\n" t.Runner.t_label e)
    timed

(* --- main ------------------------------------------------------------ *)

(* Where traced runs write their Chrome trace (run.py saves results there
   too). *)
let out_dir = ".bench_out"

let () =
  let workload = ref "" and seed = ref Pins.default_seed and seconds = ref 10 in
  let trace = ref 0 and rev = ref "unknown" and src = ref "unknown" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let pins = ref "" and probe = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 1, the pinned one)");
      ("--seconds", Arg.Set_int seconds, " run length; sets the fixed pass count");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--rev", Arg.Set_string rev, " git revision of the measured code");
      ("--src-digest", Arg.Set_string src, " digest of the measured sources");
      ("--nproc", Arg.Set_int nproc, " usable host cores");
      ("--print-pins", Arg.Set_string pins, " print the pinned outputs of a workload");
      ("--kernel-probe", Arg.Set_int probe, " N: does a kernel sample depend on the op before it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !pins <> "" then (print_pins !pins; exit 0);
  if !probe > 0 then (Kernel_probe.run !probe; exit 0);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let trace = !trace = 1 in
  let passes = max 1 (!seconds * passes_per_10s !workload / 10) in
  let domains = max 1 (min !nproc (Domain.recommended_domain_count ())) in
  let r = run_workload ~workload:!workload ~seed:!seed ~passes ~trace ~domains in
  let declared, values =
    if trace then
      (per_layer, r.Runner.metrics @ layer_metrics r.Runner.metrics)
    else (end_to_end, r.Runner.metrics)
  in
  let attributed = List.assoc_opt "trace.attributed_pct" values in
  let checks =
    r.Runner.checks
    @ (match attributed with
      | Some pct -> [ ("layers_cover_90pct_of_traced_wall", pct >= 90.) ]
      | None -> [])
  in
  let trace_file =
    if not trace then Json.Null
    else begin
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir !workload !seed in
      match Tca_telemetry.Exporter.write_chrome_trace Layers.sink path with
      | Ok () -> Json.String path
      | Error d -> Json.String ("unwritten: " ^ Tca_util.Diag.to_string d)
    end
  in
  let correct = r.Runner.failed = 0 && List.for_all snd checks in
  let info =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int !seed);
         ("seconds", Json.Int !seconds);
         ("passes", Json.Int passes);
         ("trace", Json.Bool trace);
         ("git_rev", Json.String !rev);
         ("src_digest", Json.String !src);
         ("nproc", Json.Int !nproc);
         ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml_version", Json.String Sys.ocaml_version);
         ("host_spin_ms", Json.Float (1000. *. Tca_util.Stats.median_exn (Array.of_list !Host.samples)));
         ("nominal_kernel_ms", Json.Float (1000. *. Host.nominal_kernel_s));
         ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) checks));
         ("chrome_trace", trace_file);
       ]
      @ r.Runner.info)
  in
  print_endline (Json.to_string (Json.Obj [ ("perfbench", info) ]));
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name values) ~default:0. in
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.Runner.attempted);
            ("failed", Json.Int r.Runner.failed);
            ("metrics", Json.Obj (List.map metric declared));
          ]))
