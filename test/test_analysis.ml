(* Static trace analyzer: dependence DAG, performance bounds, derived
   model inputs and the lint pass. The workload-facing tests close the
   three-way cross-check of the analyzer against the cycle-level
   simulator and the analytical model. *)

open Tca_uarch
open Tca_analysis

let cfg = Tca_experiments.Exp_common.validation_core ()

(* Small instances of every bundled workload pair, built once. *)
let workload_pairs =
  lazy
    [
      ( "synthetic",
        Tca_workloads.Synthetic.generate
          (Tca_workloads.Synthetic.config ~n_units:1000 ~n_chunks:40
             ~accel_latency:20 ()) );
      ( "heap",
        Tca_workloads.Heap_workload.generate
          (Tca_workloads.Heap_workload.config ~n_calls:200
             ~app_instrs_per_call:50 ()) );
      ( "dgemm",
        Tca_workloads.Dgemm_workload.pair
          (Tca_workloads.Dgemm_workload.config ~n:32 ())
          ~dim:4 );
      ( "hashmap",
        fst
          (Tca_workloads.Hashmap_workload.generate
             (Tca_workloads.Hashmap_workload.config ~n_lookups:200
                ~app_instrs_per_lookup:60 ())) );
      ( "regex",
        fst
          (Tca_workloads.Regex_workload.generate
             (Tca_workloads.Regex_workload.config ~n_records:50
                ~app_instrs_per_record:200 ())) );
      ( "strfn",
        fst
          (Tca_workloads.Strfn_workload.generate
             (Tca_workloads.Strfn_workload.config ~n_calls:150
                ~app_instrs_per_call:80 ())) );
    ]

let sim_cycles cfg trace =
  match Pipeline.run cfg trace with
  | Ok (Pipeline.Complete stats) -> stats.Sim_stats.cycles
  | Ok (Pipeline.Partial _) -> Alcotest.fail "simulation hit the watchdog"
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)

(* --- dependence DAG --- *)

let test_dag_register_edges () =
  let instrs =
    [|
      Isa.int_alu ~dst:1 ();
      Isa.int_alu ~src1:1 ~dst:2 ();
      (* Output dep on 0, anti dep on the reader 1. *)
      Isa.int_alu ~dst:1 ();
    |]
  in
  let dag = Dag.build instrs in
  let s = Dag.stats dag in
  Alcotest.(check int) "nodes" 3 s.Dag.nodes;
  Alcotest.(check int) "true reg" 1 s.Dag.true_reg;
  Alcotest.(check int) "anti" 1 s.Dag.anti;
  Alcotest.(check int) "output" 1 s.Dag.output;
  Alcotest.(check int) "depth" 2 s.Dag.depth;
  Alcotest.(check bool) "true edge 0->1" true
    (List.mem (0, Dag.True_reg) (Dag.preds dag 1));
  Alcotest.(check bool) "anti edge 1->2" true
    (List.mem (1, Dag.Anti) (Dag.preds dag 2));
  Alcotest.(check bool) "output edge 0->2" true
    (List.mem (0, Dag.Output) (Dag.preds dag 2))

let test_dag_memory_edges () =
  let instrs =
    [|
      Isa.store ~src:1 ~addr:0x100 ();
      (* Same exact address: forwarding-visible true dependence. *)
      Isa.load ~dst:2 ~addr:0x100 ();
      (* Accel reads the stored line, writes line 0x200. *)
      Isa.accel ~compute_latency:3 ~reads:[| 0x110 |] ~writes:[| 0x200 |] ();
      (* Reads a line the accel wrote: dataflow edge. *)
      Isa.load ~dst:3 ~addr:0x208 ();
    |]
  in
  let dag = Dag.build instrs in
  let s = Dag.stats dag in
  Alcotest.(check int) "true mem" 1 s.Dag.true_mem;
  Alcotest.(check int) "mem data" 2 s.Dag.mem_data;
  Alcotest.(check bool) "store->load" true
    (List.mem (0, Dag.True_mem) (Dag.preds dag 1));
  Alcotest.(check bool) "store->accel" true
    (List.mem (0, Dag.Mem_data) (Dag.preds dag 2));
  Alcotest.(check bool) "accel->load" true
    (List.mem (2, Dag.Mem_data) (Dag.preds dag 3))

(* --- bounds --- *)

let test_bounds_empty () =
  let b = Bounds.compute cfg [||] in
  Alcotest.(check int) "instrs" 0 b.Bounds.instrs;
  Alcotest.(check int) "lower bound" 0 b.Bounds.cycles_lower_bound;
  Alcotest.(check int) "critical path" 0 b.Bounds.critical_path_length

let test_bounds_chain () =
  let n = 40 in
  let instrs = Array.init n (fun _ -> Isa.int_alu ~src1:0 ~dst:0 ()) in
  let b = Bounds.compute cfg instrs in
  Alcotest.(check int) "critical path" n b.Bounds.critical_path_length;
  (* One cycle per link plus dispatch, completion and commit overhead. *)
  Alcotest.(check int) "latency bound"
    (n + 1 + cfg.Config.commit_depth + 1)
    b.Bounds.latency_bound;
  Alcotest.(check bool) "bound holds" true
    (b.Bounds.cycles_lower_bound <= sim_cycles cfg (Trace.of_array instrs))

let test_bounds_throughput () =
  let n = 64 in
  let instrs = Array.init n (fun i -> Isa.int_alu ~dst:(i mod 32) ()) in
  let b = Bounds.compute cfg instrs in
  Alcotest.(check bool) "dispatch ceiling" true
    (b.Bounds.throughput_bound >= n / cfg.Config.dispatch_width);
  Alcotest.(check bool) "ipc capped" true
    (b.Bounds.ipc_upper_bound
    <= float_of_int (min cfg.Config.dispatch_width cfg.Config.issue_width));
  Alcotest.(check bool) "bound holds" true
    (b.Bounds.cycles_lower_bound <= sim_cycles cfg (Trace.of_array instrs))

let test_bounds_exclusive_serializes_accels () =
  let instrs =
    Array.init 16 (fun i ->
        if i mod 2 = 0 then
          Isa.accel ~compute_latency:50 ~reads:[||] ~writes:[||] ()
        else Isa.int_alu ~dst:0 ())
  in
  let pipelined = Bounds.compute cfg instrs in
  let excl =
    Bounds.compute { cfg with Config.tca_occupancy = Config.Exclusive } instrs
  in
  Alcotest.(check bool) "exclusive >= pipelined" true
    (excl.Bounds.cycles_lower_bound >= pipelined.Bounds.cycles_lower_bound);
  Alcotest.(check bool) "serialized service counted" true
    (excl.Bounds.throughput_bound >= 8 * 50)

(* Degenerate shapes: a trace that is nothing but invocations, and a
   one-instruction trace. Both must produce positive, sound bounds
   rather than tripping over empty dependence structure. *)
let test_bounds_accel_only () =
  let instrs =
    Array.init 4 (fun _ ->
        Isa.accel ~compute_latency:7 ~reads:[| 0x40 |] ~writes:[| 0x80 |] ())
  in
  let b = Bounds.compute cfg instrs in
  Alcotest.(check int) "instrs" 4 b.Bounds.instrs;
  Alcotest.(check bool) "positive lower bound" true
    (b.Bounds.cycles_lower_bound > 0);
  Alcotest.(check bool) "bound holds" true
    (b.Bounds.cycles_lower_bound <= sim_cycles cfg (Trace.of_array instrs))

let test_bounds_single_instruction () =
  let instrs = [| Isa.load ~dst:1 ~addr:0x40 () |] in
  let b = Bounds.compute cfg instrs in
  Alcotest.(check int) "instrs" 1 b.Bounds.instrs;
  Alcotest.(check int) "critical path" 1 b.Bounds.critical_path_length;
  Alcotest.(check bool) "positive lower bound" true
    (b.Bounds.cycles_lower_bound >= 1);
  Alcotest.(check bool) "bound holds" true
    (b.Bounds.cycles_lower_bound <= sim_cycles cfg (Trace.of_array instrs))

(* The headline invariant: for every bundled workload, both traces,
   all four couplings — the static lower bound never exceeds the
   simulated cycle count. *)
let test_bounds_hold_on_workloads () =
  List.iter
    (fun (name, pair) ->
      let check what coupling trace =
        let c = Config.with_coupling cfg coupling in
        let b = Analysis.bounds ~cfg:c trace in
        let sim = sim_cycles c trace in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s %s: %d <= %d" name what
             (Config.coupling_name coupling)
             b.Bounds.cycles_lower_bound sim)
          true
          (b.Bounds.cycles_lower_bound <= sim)
      in
      (* Coupling only matters with accels in flight; baseline once. *)
      check "base" Config.coupling_nl_nt pair.Tca_workloads.Meta.baseline;
      List.iter
        (fun coupling ->
          check "accel" coupling pair.Tca_workloads.Meta.accelerated)
        Config.all_couplings)
    (Lazy.force workload_pairs)

(* --- derived model inputs --- *)

let test_derive_matches_meta () =
  List.iter
    (fun (name, pair) ->
      let meta = pair.Tca_workloads.Meta.meta in
      match
        Derive.of_pair ~cfg ~baseline:pair.Tca_workloads.Meta.baseline
          ~accelerated:pair.Tca_workloads.Meta.accelerated
      with
      | Error d -> Alcotest.fail (name ^ ": " ^ Tca_util.Diag.to_string d)
      | Ok d ->
          Alcotest.(check int)
            (name ^ " invocations")
            meta.Tca_workloads.Meta.invocations d.Derive.invocations;
          Alcotest.(check int) (name ^ " acceleratable")
            meta.Tca_workloads.Meta.acceleratable_instrs
            d.Derive.acceleratable_instrs;
          Alcotest.(check (float 1e-9)) (name ^ " a")
            meta.Tca_workloads.Meta.a d.Derive.a;
          Alcotest.(check (float 1e-9)) (name ^ " v")
            meta.Tca_workloads.Meta.v d.Derive.v;
          Alcotest.(check (float 1e-6))
            (name ^ " reads")
            meta.Tca_workloads.Meta.avg_reads_per_invocation d.Derive.avg_reads;
          Alcotest.(check (float 1e-6)) (name ^ " writes")
            meta.Tca_workloads.Meta.avg_writes_per_invocation
            d.Derive.avg_writes)
    (Lazy.force workload_pairs)

(* Failure paths: [of_pair] must reject inputs that are not a
   baseline/accelerated pair instead of deriving nonsense. *)
let test_derive_rejects_non_pairs () =
  (* No invocation in the "accelerated" trace: v cannot be derived. *)
  let base =
    Trace.of_array (Array.init 20 (fun _ -> Isa.int_alu ~dst:1 ()))
  in
  (match Derive.of_pair ~cfg ~baseline:base ~accelerated:base with
  | Ok _ -> Alcotest.fail "accepted a pair with no invocations"
  | Error _ -> ());
  (* Mismatched lengths: more non-accel instructions in the accelerated
     trace than the whole baseline, so the implied acceleratable
     fraction is negative. *)
  let bloated =
    Trace.of_array
      (Array.init 40 (fun i ->
           if i = 0 then
             Isa.accel ~compute_latency:2 ~reads:[| 0x40 |] ~writes:[||] ()
           else Isa.int_alu ~dst:1 ()))
  in
  match Derive.of_pair ~cfg ~baseline:base ~accelerated:bloated with
  | Ok _ -> Alcotest.fail "accepted a negative acceleratable fraction"
  | Error _ -> ()

(* Feeding the derived scenario to eqs. (1)-(9) must reproduce the
   meta-driven model speedups within the fig* validation tolerance:
   the only non-recovered quantity is the fresh-line estimate (static
   cache replay vs. the generator's analytic reuse count). *)
let test_derive_speedups_close () =
  let open Tca_experiments in
  List.iter
    (fun (name, pair) ->
      let meta = pair.Tca_workloads.Meta.meta in
      let base_cycles = sim_cycles cfg pair.Tca_workloads.Meta.baseline in
      let ipc =
        float_of_int meta.Tca_workloads.Meta.baseline_instrs
        /. float_of_int base_cycles
      in
      let core = Exp_common.model_core_of cfg ~ipc in
      let from_meta =
        Exp_common.scenario_of_meta meta
          ~latency:(Exp_common.meta_latency meta ~cfg)
      in
      let d =
        match
          Derive.of_pair ~cfg ~baseline:pair.Tca_workloads.Meta.baseline
            ~accelerated:pair.Tca_workloads.Meta.accelerated
        with
        | Ok d -> d
        | Error e -> Alcotest.fail (Tca_util.Diag.to_string e)
      in
      let from_derived =
        match
          Tca_model.Params.scenario ~a:d.Derive.a ~v:d.Derive.v
            ~accel:(Tca_model.Params.Latency d.Derive.accel_latency) ()
        with
        | Ok s -> s
        | Error e -> Alcotest.fail (Tca_util.Diag.to_string e)
      in
      let speedups s =
        match Tca_model.Equations.speedups core s with
        | Ok sp -> sp
        | Error e -> Alcotest.fail (Tca_util.Diag.to_string e)
      in
      List.iter2
        (fun (m, meta_sp) (_, derived_sp) ->
          let rel = Float.abs (derived_sp -. meta_sp) /. meta_sp in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: derived %.4f vs meta %.4f" name
               (Tca_model.Mode.to_string m) derived_sp meta_sp)
            true (rel <= 0.15))
        (speedups from_meta) (speedups from_derived))
    (Lazy.force workload_pairs)

(* --- lint --- *)

let test_lint_clean_on_generators () =
  List.iter
    (fun (name, pair) ->
      let check what trace =
        let findings = Lint.run_trace trace in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s clean (worst: %s)" name what
             (match Lint.max_severity findings with
             | None -> "none"
             | Some s -> Finding.severity_name s))
          true (Lint.clean findings)
      in
      check "baseline" pair.Tca_workloads.Meta.baseline;
      check "accelerated" pair.Tca_workloads.Meta.accelerated)
    (Lazy.force workload_pairs)

(* A deliberately broken instruction stream must trigger every rule at
   least once (empty-trace and no-accel need their own inputs). *)
let test_lint_broken_trace_fires_every_rule () =
  let broken =
    [|
      (* reads r5 before any definition *)
      Isa.int_alu ~src1:5 ~dst:6 ();
      Isa.int_alu ~src1:6 ~dst:7 ();
      (* overwrites r7 with no intervening read: dead write at 1 *)
      Isa.int_alu ~src1:6 ~dst:7 ();
      (* same-address store pair with no load between: silent store *)
      Isa.store ~src:7 ~addr:0x1000 ();
      Isa.store ~src:7 ~addr:0x1000 ();
      (* one static site, two different operand registers *)
      Isa.branch ~pc:0x42 ~src1:6 ~taken:true ();
      Isa.branch ~pc:0x42 ~src1:7 ~taken:false ();
      (* no reads, no writes, zero latency *)
      Isa.accel ~compute_latency:0 ~reads:[||] ~writes:[||] ();
      (* dup read (0x2000/0x2008), rw overlap (0x3000), dup write
         (0x4000/0x4010), app overlap (0x1000 line is stored above) *)
      Isa.accel ~compute_latency:2
        ~reads:[| 0x2000; 0x2008; 0x3000; 0x1000 |]
        ~writes:[| 0x3000; 0x4000; 0x4010 |]
        ();
    |]
  in
  let findings = Lint.run broken in
  let fired rule = List.exists (fun f -> Finding.rule_name f = rule) findings in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fired") true (fired rule))
    [
      "use-before-def"; "dead-write"; "silent-store"; "branch-site-conflict";
      "noop-accel"; "accel-dup-read"; "accel-dup-write"; "accel-rw-overlap";
      "accel-app-overlap";
    ];
  Alcotest.(check bool) "dirty" false (Lint.clean findings);
  Alcotest.(check bool) "max severity error" true
    (Lint.max_severity findings = Some Finding.Error);
  (* The remaining two rules. *)
  Alcotest.(check bool) "empty-trace" true
    (List.exists
       (fun f -> Finding.rule_name f = "empty-trace")
       (Lint.run [||]));
  Alcotest.(check bool) "no-accel" true
    (List.exists
       (fun f -> Finding.rule_name f = "no-accel")
       (Lint.run [| Isa.int_alu ~dst:0 () |]))

(* The configuration-wall rule: fires only when the caller supplies a
   modeled break-even granularity and the trace's mean
   instructions-per-invocation sits below it. *)
let test_lint_config_granularity () =
  (* 10 instructions per invocation. *)
  let instrs =
    Array.init 50 (fun i ->
        if i mod 10 = 9 then
          Isa.accel ~dst:1 ~compute_latency:4 ~reads:[||] ~writes:[||] ()
        else Isa.int_alu ~dst:1 ())
  in
  let fired findings =
    List.exists
      (fun f -> Finding.rule_name f = "config-break-even")
      findings
  in
  Alcotest.(check bool) "absent without a threshold" false
    (fired (Lint.run instrs));
  Alcotest.(check bool) "absent when granularity is above break-even" false
    (fired (Lint.run ~config_break_even:5.0 instrs));
  let findings = Lint.run ~config_break_even:100.0 instrs in
  Alcotest.(check bool) "fires below break-even" true (fired findings);
  List.iter
    (fun f ->
      match f with
      | Finding.Config_granularity { mean_instrs_per_invocation; break_even }
        ->
          Alcotest.(check bool) "measured granularity" true
            (mean_instrs_per_invocation = 10.0 && break_even = 100.0);
          Alcotest.(check bool) "warning severity" true
            (Finding.severity f = Finding.Warning)
      | _ -> ())
    findings;
  (* No invocations at all: the no-accel rule owns that case; the
     config rule must stay silent rather than divide by zero. *)
  Alcotest.(check bool) "silent on accel-free traces" false
    (fired (Lint.run ~config_break_even:100.0 [| Isa.int_alu ~dst:1 () |]))

let test_lint_no_false_site_conflict () =
  (* The same site reading the same register repeatedly is fine. *)
  let instrs =
    Array.init 20 (fun i ->
        if i = 0 then Isa.int_alu ~dst:3 ()
        else Isa.branch ~pc:0x42 ~src1:3 ~taken:(i mod 2 = 0) ())
  in
  Alcotest.(check bool) "clean" true (Lint.clean (Lint.run instrs))

(* --- report facade --- *)

let test_report_json_schema () =
  let pair = List.assoc "hashmap" (Lazy.force workload_pairs) in
  let report =
    Analysis.analyze ~baseline:pair.Tca_workloads.Meta.baseline ~cfg
      pair.Tca_workloads.Meta.accelerated
  in
  Alcotest.(check bool) "derivation succeeded" true (report.Analysis.derived <> None);
  match Analysis.report_to_json report with
  | Tca_util.Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("has " ^ key) true (List.mem_assoc key fields))
        [ "counts"; "dag"; "bounds"; "findings"; "derived"; "derive_error" ]
  | _ -> Alcotest.fail "report JSON is not an object"

let () =
  Alcotest.run "tca_analysis"
    [
      ( "dag",
        [
          Alcotest.test_case "register edges" `Quick test_dag_register_edges;
          Alcotest.test_case "memory edges" `Quick test_dag_memory_edges;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "empty" `Quick test_bounds_empty;
          Alcotest.test_case "chain" `Quick test_bounds_chain;
          Alcotest.test_case "throughput" `Quick test_bounds_throughput;
          Alcotest.test_case "exclusive occupancy" `Quick
            test_bounds_exclusive_serializes_accels;
          Alcotest.test_case "accel-only trace" `Quick test_bounds_accel_only;
          Alcotest.test_case "single instruction" `Quick
            test_bounds_single_instruction;
          Alcotest.test_case "hold on workloads" `Slow
            test_bounds_hold_on_workloads;
        ] );
      ( "derive",
        [
          Alcotest.test_case "matches meta" `Quick test_derive_matches_meta;
          Alcotest.test_case "rejects non-pairs" `Quick
            test_derive_rejects_non_pairs;
          Alcotest.test_case "speedups close" `Slow test_derive_speedups_close;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean on generators" `Quick
            test_lint_clean_on_generators;
          Alcotest.test_case "broken trace fires every rule" `Quick
            test_lint_broken_trace_fires_every_rule;
          Alcotest.test_case "config granularity threshold" `Quick
            test_lint_config_granularity;
          Alcotest.test_case "no false site conflict" `Quick
            test_lint_no_false_site_conflict;
        ] );
      ( "report",
        [ Alcotest.test_case "json schema" `Quick test_report_json_schema ] );
    ]
