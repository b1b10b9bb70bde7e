(* Benchmark harness for the two CI-gated performance measurements. The
   paper's tables and figures are regenerated by `tca run` (see
   DESIGN.md section 4 for the index), not here.

   Usage:
     bench/main.exe                    run both targets (full sizes)
     bench/main.exe --quick            fewer repetitions, smaller mix
     bench/main.exe --summary FILE     also write the JSON summary to
                                       FILE (nothing is written without
                                       it)
     bench/main.exe scaling            run selected targets
   Targets: simulator scaling all

   The [simulator] target times the optimized pipeline against the
   independent reference implementation of the core (Pipeline_reference)
   on the same trace in alternating pairs, plus Simulator.run_batch
   serial vs a domain pool, and records both ratios under "simulator" in
   the JSON summary: the single-trace speedup is the median per-pair
   ratio, with its quartiles beside it. Its identity flag compares the
   two pipelines on the baseline and on the accelerated trace under all
   four couplings. CI guards that median against the committed
   BENCH_results.json.

   The [scaling] target runs a fixed job mix fully profiled at 1..N
   domains and records {domains, wall_s, speedup, efficiency} plus the
   profiler's component attribution per point under "scaling". CI
   gates the efficiency at 2 domains against the committed curve.

   Every section of the summary carries its own "meta" block, so one
   section can be re-recorded alone and still name its origin. *)

let quick = ref false
let summary_path : string option ref = ref None

(* Provenance of one summary section: which commit (suffixed "-dirty"
   when the tree had uncommitted changes), toolchain and machine shape
   produced it. The regression guard ignores this block — it exists so a
   row can be traced back to its origin. *)
let run_meta () =
  let git_rev =
    match
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    with
    | exception _ -> "unknown"
    | ic -> (
        let line = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when line <> "" -> line
        | _ | (exception _) -> "unknown")
  in
  let open Tca_util.Json in
  Obj
    [
      ("git_rev", String git_rev);
      ("ocaml_version", String Sys.ocaml_version);
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("quick", Bool !quick);
    ]

(* [sections]: each run target's name and the fields it returned. *)
let write_summary sections =
  match !summary_path with
  | None -> ()
  | Some path ->
      let open Tca_util.Json in
      let meta = run_meta () in
      let doc =
        Obj
          (List.map
             (fun (name, fields) -> (name, Obj (fields @ [ ("meta", meta) ])))
             sections)
      in
      (* Atomic so an interrupted bench never leaves a truncated summary
         for the CI regression guard to parse. *)
      Tca_util.Diag.ok_exn
        (Tca_util.Atomic_file.write path (to_string_indent doc ^ "\n"));
      Printf.printf "[bench] wrote %s\n" path

let banner id title =
  Printf.printf "\n%s\n=== [%s] %s\n%s\n" (String.make 72 '=') id title
    (String.make 72 '=')

(* --- Simulator hot path: optimized vs reference pipeline --- *)

let run_simulator () =
  banner "S" "Simulator hot path: optimized vs reference pipeline";
  let open Tca_uarch in
  let pair =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:200 ~n_chunks:20
         ~accel_latency:10 ())
  in
  let cfg = Config.hp () in
  let trace = pair.Tca_workloads.Meta.baseline in
  let uops = Trace.length trace in
  let pairs = if !quick then 15 else 41 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* The compare_modes shape: the baseline, then the accelerated trace
     under each coupling. *)
  let modes =
    ("baseline", cfg, trace)
    :: List.map
         (fun c ->
           ( Config.coupling_name c,
             Config.with_coupling cfg c,
             pair.Tca_workloads.Meta.accelerated ))
         Config.all_couplings
  in
  (* The speedup only counts if the stats agree bit for bit, on every
     mode: the baseline trace never reaches the accelerator issue path. *)
  let stats_json s = Tca_util.Json.to_string (Sim_stats.to_json s) in
  let differing =
    List.filter_map
      (fun (name, cfg, trace) ->
        if
          stats_json (Pipeline.run_exn cfg trace)
          = stats_json (Pipeline_reference.run_exn cfg trace)
        then None
        else Some name)
      modes
  in
  let identical = differing = [] in
  if not identical then
    Printf.eprintf
      "[simulator] WARNING: optimized stats differ from reference on %s\n"
      (String.concat ", " differing);
  (* The identity check above also warmed both paths. One run per side
     per pair, the order flipped every pair so a drift in host speed hits
     both sides alike; the major collection before each run sits outside
     its timed window, so neither side pays for the other's garbage. *)
  let run_once f =
    Gc.full_major ();
    time (fun () -> ignore (f () : Sim_stats.t))
  in
  let optimized () = run_once (fun () -> Pipeline.run_exn cfg trace)
  and reference () =
    run_once (fun () -> Pipeline_reference.run_exn cfg trace)
  in
  let samples =
    Array.init pairs (fun k ->
        if k mod 2 = 0 then
          let o = optimized () in
          (o, reference ())
        else
          let r = reference () in
          (optimized (), r))
  in
  let ratios =
    Array.map (fun (o, r) -> if o > 0.0 then r /. o else 0.0) samples
  in
  let quantile p = Tca_util.Stats.percentile_exn ratios p in
  let speedup = quantile 50.0 in
  let total side = Array.fold_left (fun acc s -> acc +. side s) 0.0 samples in
  let optimized_s = total fst and reference_s = total snd in
  let per_s s = if s > 0.0 then float_of_int (uops * pairs) /. s else 0.0 in
  (* Batched evaluation: the modes, replicated, through run_batch serial
     vs a domain pool — with the usual bit-identity requirement. *)
  let n_modes = List.length modes in
  let replicas = if !quick then 2 else 4 in
  let entries =
    Array.init (replicas * n_modes) (fun i ->
        let _, cfg, trace = List.nth modes (i mod n_modes) in
        (cfg, trace))
  in
  let keys results =
    Array.map
      (function
        | Ok o -> stats_json (Pipeline.stats_of_outcome o)
        | Error d -> Tca_util.Diag.to_string d)
      results
  in
  let serial_keys = ref [||] and par_keys = ref [||] in
  let batch_serial_s =
    time (fun () -> serial_keys := keys (Simulator.run_batch entries))
  in
  let pool_workers = max 2 (Domain.recommended_domain_count ()) in
  let batch_parallel_s =
    Tca_engine.Pool.with_pool ~workers:pool_workers (fun pool ->
        time (fun () ->
            par_keys :=
              keys
                (Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries)))
  in
  let batch_identical = !serial_keys = !par_keys in
  if not batch_identical then
    Printf.eprintf "[simulator] WARNING: parallel batch differs from serial\n";
  let batch_speedup =
    if batch_parallel_s > 0.0 then batch_serial_s /. batch_parallel_s else 0.0
  in
  Printf.printf
    "single trace (%d uops x %d pairs): reference %.3f s (%.2e uops/s), \
     optimized %.3f s (%.2e uops/s) -> median %.2fx (quartiles %.2f-%.2f), \
     stats (%d modes) %s\n\
     batch (%d entries): serial %.3f s, parallel %.3f s (workers %d, %.2fx), \
     results %s\n"
    uops pairs reference_s (per_s reference_s) optimized_s (per_s optimized_s)
    speedup (quantile 25.0) (quantile 75.0) n_modes
    (if identical then "bit-identical" else "DIFFER")
    (Array.length entries) batch_serial_s batch_parallel_s pool_workers
    batch_speedup
    (if batch_identical then "bit-identical" else "DIFFER");
  let open Tca_util.Json in
  [
    ("trace_uops", Int uops);
    ("pairs", Int pairs);
    ("reference_s", Float reference_s);
    ("optimized_s", Float optimized_s);
    ("reference_uops_per_s", Float (per_s reference_s));
    ("optimized_uops_per_s", Float (per_s optimized_s));
    ("speedup", Float speedup);
    ("speedup_q1", Float (quantile 25.0));
    ("speedup_q3", Float (quantile 75.0));
    ("stats_bit_identical", Bool identical);
    ( "batch",
      Obj
        [
          ("entries", Int (Array.length entries));
          ("serial_s", Float batch_serial_s);
          ("parallel_s", Float batch_parallel_s);
          ("workers", Int pool_workers);
          ("speedup", Float batch_speedup);
          ("results_bit_identical", Bool batch_identical);
        ] );
  ]

(* --- Scaling curve: the fixed job mix at 1..N domains, profiled --- *)

let run_scaling () =
  banner "SC" "Scaling curve: fixed job mix at 1..N domains (profiled)";
  let module Scheduler = Tca_engine.Scheduler in
  let module T = Tca_telemetry in
  let job_registry = Tca_experiments.Jobs.registry () in
  (* A mix of model-only and simulator-backed jobs, heavy enough that
     scheduling overhead is noise. *)
  let names =
    [ "table1"; "fig2"; "fig3"; "fig4"; "logca"; "design"; "mechanistic";
      "cores" ]
  in
  let js =
    match Tca_engine.Registry.resolve job_registry names with
    | Ok js -> js
    | Error d -> failwith (Tca_util.Diag.to_string d)
  in
  let quick = !quick in
  let max_domains = min 8 (max 4 (Domain.recommended_domain_count ())) in
  (* Every point runs fully instrumented (task sinks + host sink), so
     the per-point attribution explains the curve: when efficiency
     drops, the components say whether the time went to scheduler
     waits, fork/join or the simulator itself. The instrumentation cost
     is identical at every point, so the ratios are fair. *)
  let run_at n =
    let t0 = T.Timing.now_us () in
    let outcomes, host = Scheduler.run_profiled ~quick ~jobs:n js in
    let wall_s = (T.Timing.now_us () -. t0) /. 1e6 in
    let fingerprints =
      List.map
        (fun (o : Scheduler.outcome) ->
          Tca_engine.Artifact.fingerprint (Scheduler.artifact_exn o))
        outcomes
    in
    (n, wall_s, T.Profiler.of_sink host, fingerprints)
  in
  let points = List.map run_at (List.init max_domains (fun i -> i + 1)) in
  let _, serial_wall, _, serial_fps =
    match points with p :: _ -> p | [] -> assert false
  in
  let identical =
    List.for_all (fun (_, _, _, fps) -> fps = serial_fps) points
  in
  if not identical then
    Printf.eprintf "[scaling] WARNING: artifacts differ across domain counts\n";
  List.iter
    (fun (n, wall_s, profile, _) ->
      let speedup = if wall_s > 0.0 then serial_wall /. wall_s else 0.0 in
      Printf.printf
        "domains %d: wall %.3f s, speedup %.2fx, efficiency %.2f, cpu %.3f s\n"
        n wall_s speedup
        (speedup /. float_of_int n)
        profile.T.Profiler.cpu_s)
    points;
  let open Tca_util.Json in
  [
    ("n_jobs", Int (List.length js));
    ("max_domains", Int max_domains);
    ("artifacts_bit_identical", Bool identical);
    ( "points",
      List
        (List.map
           (fun (n, wall_s, profile, _) ->
             let speedup =
               if wall_s > 0.0 then serial_wall /. wall_s else 0.0
             in
             Obj
               [
                 ("domains", Int n);
                 ("wall_s", Float wall_s);
                 ("speedup", Float speedup);
                 ("efficiency", Float (speedup /. float_of_int n));
                 ("cpu_s", Float profile.T.Profiler.cpu_s);
                 ( "attributed_fraction",
                   Float (T.Profiler.attributed_fraction profile) );
                 ( "components",
                   Obj
                     (List.map
                        (fun (k, v) -> (k, Float v))
                        profile.T.Profiler.components) );
               ])
           points) );
  ]

let targets = [ ("simulator", run_simulator); ("scaling", run_scaling) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        strip_flags acc rest
    | "--summary" :: path :: rest ->
        summary_path := Some path;
        strip_flags acc rest
    | arg :: rest -> strip_flags (arg :: acc) rest
  in
  let selected =
    match strip_flags [] args with
    | [] | [ "all" ] -> List.map fst targets
    | picks -> picks
  in
  write_summary
    (List.map
       (fun name ->
         match List.assoc_opt name targets with
         | Some f -> (name, f ())
         | None ->
             Printf.eprintf "unknown target %s (available: %s)\n" name
               (String.concat " " (List.map fst targets));
             exit 2)
       selected)
