(* Fault-injection harness: drive the result-returning public APIs with
   seeded adversarial inputs (Tca_util.Faultgen) and assert the three
   robustness invariants of the typed error layer:

     1. no exception ever escapes a result API — hostile input yields
        [Error (Diag.t)], never a raise;
     2. every float inside an [Ok] is finite;
     3. a watchdog-truncated simulation returns [Ok (Partial _)] whose
        [Watchdog] diagnostic is consistent with its stats snapshot
        ([diag.committed = stats.committed], [total] = trace length).

   Deterministic: equal FUZZ_SEED ⇒ equal case stream. Override the case
   count with FUZZ_CASES (default 10_000) and the seed with FUZZ_SEED. *)

let cases =
  match Sys.getenv_opt "FUZZ_CASES" with
  | Some s -> int_of_string s
  | None -> 10_000

let seed =
  match Sys.getenv_opt "FUZZ_SEED" with
  | Some s -> int_of_string s
  | None -> 0x7CA5EED

let failures : (int * string * string) list ref = ref []
let checks = ref 0

let record case what detail = failures := (case, what, detail) :: !failures

(* Invariant 1: the thunk exercises only result APIs, so any raise is a
   robustness bug. *)
let trace_guards = Sys.getenv_opt "FUZZ_TRACE" <> None

let guard case what f =
  incr checks;
  if trace_guards then (Printf.eprintf "case %d: %s\n%!" case what);
  try f () with e -> record case what ("escaped exception: " ^ Printexc.to_string e)

(* Invariant 2. *)
let finite case what v =
  if not (Float.is_finite v) then
    record case what (Printf.sprintf "non-finite value in Ok: %h" v)

let ok_finite case what = function
  | Ok v -> finite case what v
  | Error (_ : Tca_util.Diag.t) -> ()

(* --- analytical-model layer --- *)

let model_case i g =
  let open Tca_model in
  let cs = Tca_util.Faultgen.core_spec g in
  let sc = Tca_util.Faultgen.scenario_spec g in
  guard i "model" @@ fun () ->
  match
    Params.core ~commit_stall:cs.Tca_util.Faultgen.commit_stall
      ~drain_beta:cs.Tca_util.Faultgen.drain_beta ~ipc:cs.Tca_util.Faultgen.ipc
      ~rob_size:cs.Tca_util.Faultgen.rob_size
      ~issue_width:cs.Tca_util.Faultgen.issue_width ()
  with
  | Error _ -> ()
  | Ok core -> (
      finite i "Params.core.ipc" core.Params.ipc;
      finite i "Params.core.commit_stall" core.Params.commit_stall;
      let accel =
        if sc.Tca_util.Faultgen.use_factor then
          Params.Factor sc.Tca_util.Faultgen.factor
        else Params.Latency sc.Tca_util.Faultgen.latency
      in
      let scenario =
        match sc.Tca_util.Faultgen.drain_fixed with
        | Some t ->
            Params.scenario
              ~drain:(Tca_interval.Drain.Fixed t)
              ~a:sc.Tca_util.Faultgen.a ~v:sc.Tca_util.Faultgen.v ~accel ()
        | None ->
            Params.scenario ~a:sc.Tca_util.Faultgen.a ~v:sc.Tca_util.Faultgen.v
              ~accel ()
      in
      match scenario with
      | Error _ -> ()
      | Ok s ->
          finite i "Params.scenario.a" s.Params.a;
          finite i "Params.scenario.v" s.Params.v;
          List.iter
            (fun m -> ok_finite i "Equations.speedup" (Equations.speedup core s m))
            Mode.all;
          (match Equations.speedups core s with
          | Ok sps ->
              List.iter (fun (_, sp) -> finite i "Equations.speedups" sp) sps
          | Error _ -> ());
          (match Equations.best_mode core s with
          | Ok (_, sp) -> finite i "Equations.best_mode" sp
          | Error _ -> ());
          ok_finite i "Equations.ideal_speedup" (Equations.ideal_speedup core s);
          ok_finite i "Params.granularity" (Params.granularity s);
          (match Sensitivity.swings core s Mode.L_T with
           | Ok sw ->
               List.iter
                 (fun (w : Sensitivity.swing) ->
                   finite i "Sensitivity.swing.low" w.Sensitivity.low;
                   finite i "Sensitivity.swing.high" w.Sensitivity.high;
                   finite i "Sensitivity.swing.magnitude" w.Sensitivity.magnitude)
                 sw
           | Error _ -> ());
          (match Sensitivity.decision_stable core s with
          | Ok _ | Error _ -> ());
          ok_finite i "Concurrency.ideal_peak_speedup"
            (Concurrency.ideal_peak_speedup
               ~accel_factor:(Tca_util.Faultgen.float_adversarial g)))

(* Grid sweeps must skip-and-record bad points, never abort or leak
   non-finite speedups into non-nan cells. *)
let grid_case i g =
  let open Tca_model in
  guard i "grid" @@ fun () ->
  let axis () =
    Tca_util.Faultgen.array_adversarial ~max_len:6 g
      Tca_util.Faultgen.float_adversarial
  in
  let freqs = axis () and coverages = axis () in
  let accel = Params.Factor (Tca_util.Faultgen.positive_adversarial g) in
  match Grid.compute Presets.hp_core ~accel ~freqs ~coverages Mode.L_T with
  | Error _ -> ()
  | Ok grid ->
      Array.iter
        (Array.iter (fun c ->
             if not (Float.is_nan c) then finite i "Grid.cell" c))
        grid.Grid.cells;
      let rows = Array.length grid.Grid.cells in
      List.iter
        (fun ((r, c), _) ->
          if r < 0 || r >= rows || c < 0 || c >= Array.length grid.Grid.cells.(r)
          then record i "Grid.failures" "failure coordinate out of range")
        grid.Grid.failures;
      ignore (Grid.slowdown_fraction grid);
      ignore
        (Grid.accelerator_curve grid
           ~granularity:(Tca_util.Faultgen.float_adversarial g))

(* --- util layer --- *)

let util_case i g =
  let open Tca_util in
  let xs = Faultgen.array_adversarial g Faultgen.float_adversarial in
  guard i "stats" (fun () ->
      ok_finite i "Stats.mean" (Stats.mean xs);
      ok_finite i "Stats.geomean" (Stats.geomean xs);
      ok_finite i "Stats.variance" (Stats.variance xs);
      ok_finite i "Stats.stddev" (Stats.stddev xs);
      ok_finite i "Stats.max" (Stats.max xs);
      ok_finite i "Stats.median" (Stats.median xs);
      ok_finite i "Stats.percentile"
        (Stats.percentile xs (Faultgen.float_adversarial g));
      ok_finite i "Stats.relative_error"
        (Stats.relative_error
           ~measured:(Faultgen.float_adversarial g)
           ~estimated:(Faultgen.float_adversarial g));
      let ys = Faultgen.array_adversarial g Faultgen.float_adversarial in
      ok_finite i "Stats.mape" (Stats.mape ~measured:xs ~estimated:ys));
  guard i "sweep" (fun () ->
      let lo = Faultgen.float_adversarial g
      and hi = Faultgen.float_adversarial g
      and n = Faultgen.size_adversarial g ~max:16 in
      (match Sweep.linspace lo hi n with
      | Ok a -> Array.iter (finite i "Sweep.linspace") a
      | Error _ -> ());
      (match Sweep.logspace lo hi n with
      | Ok a -> Array.iter (finite i "Sweep.logspace") a
      | Error _ -> ());
      match
        Sweep.geometric_ints
          (Faultgen.int_adversarial g)
          (Faultgen.int_adversarial g)
          (Faultgen.float_adversarial g)
      with
      | Ok _ | Error _ -> ());
  guard i "heatmap" (fun () ->
      let values = Faultgen.matrix_adversarial g in
      let labels prefix =
        Array.init
          (Stdlib.max 0 (Faultgen.size_adversarial g ~max:8))
          (Printf.sprintf "%s%d" prefix)
      in
      match
        Heatmap.make ~values ~row_labels:(labels "r") ~col_labels:(labels "c")
      with
      | Ok h -> ignore (Heatmap.render h)
      | Error _ -> ())

(* --- cycle-level simulator layer --- *)

(* Well-formed but structurally hostile: tiny ROBs, single ports, long
   dependence chains through r0, and a sprinkling of accelerator
   invocations so every coupling path is exercised. *)
let hostile_trace g ~len =
  let open Tca_uarch in
  let b = Trace.Builder.create () in
  for k = 1 to len do
    let roll = Tca_util.Faultgen.size_adversarial g ~max:10 in
    let instr =
      match abs roll mod 10 with
      | 0 | 1 ->
          Isa.load ~base:0 ~dst:(k mod Isa.num_arch_regs)
            ~addr:(k * 8 mod 8192) ()
      | 2 -> Isa.store ~src:0 ~addr:(k * 16 mod 8192) ()
      | 3 -> Isa.branch ~pc:(0x400 + (k mod 8 * 4)) ~taken:(k mod 3 = 0) ()
      | 4 -> Isa.int_mult ~src1:0 ~dst:0 ()
      | 5 ->
          Isa.accel
            ~compute_latency:(1 + (abs roll mod 40))
            ~reads:(if k mod 2 = 0 then [| k * 64 mod 4096 |] else [||])
            ~writes:[||] ~dst:(k mod Isa.num_arch_regs) ()
      | _ -> Isa.int_alu ~src1:0 ~dst:(k mod Isa.num_arch_regs) ()
    in
    Trace.Builder.add b instr
  done;
  Trace.Builder.build b

(* Invariant 3, plus invariants 1-2 for Pipeline/Simulator. *)
let check_outcome i trace cfg = function
  | Error (_ : Tca_util.Diag.t) -> ()
  | Ok (Tca_uarch.Pipeline.Complete stats) ->
      if stats.Tca_uarch.Sim_stats.committed <> Tca_uarch.Trace.length trace
      then record i "Pipeline.Complete" "committed <> trace length";
      finite i "Sim_stats.ipc" stats.Tca_uarch.Sim_stats.ipc
  | Ok (Tca_uarch.Pipeline.Partial { stats; diag }) -> (
      finite i "Sim_stats.ipc (partial)" stats.Tca_uarch.Sim_stats.ipc;
      match diag with
      | Tca_util.Diag.Watchdog { cycles; committed; total } ->
          if committed <> stats.Tca_uarch.Sim_stats.committed then
            record i "watchdog"
              (Printf.sprintf "diag.committed %d <> stats.committed %d"
                 committed stats.Tca_uarch.Sim_stats.committed);
          if total <> Tca_uarch.Trace.length trace then
            record i "watchdog" "diag.total <> trace length";
          if committed >= total then
            record i "watchdog" "partial run claims full commit";
          (match cfg.Tca_uarch.Config.max_cycles with
          | Some cap when cycles <= cap ->
              record i "watchdog" "tripped at or below its own budget"
          | _ -> ())
      | d ->
          record i "watchdog"
            ("Partial carries non-Watchdog diag: " ^ Tca_util.Diag.to_string d))

(* A structurally hostile core (every size and width drawn
   adversarially) and a hostile trace to run on it. *)
let hostile_case g =
  let open Tca_uarch in
  let spec = Tca_util.Faultgen.uarch_spec g in
  let cfg =
    {
      (Config.hp ()) with
      Config.dispatch_width = spec.Tca_util.Faultgen.dispatch_width;
      issue_width = spec.Tca_util.Faultgen.u_issue_width;
      commit_width = spec.Tca_util.Faultgen.commit_width;
      rob_size = spec.Tca_util.Faultgen.u_rob_size;
      iq_size = spec.Tca_util.Faultgen.iq_size;
      lsq_size = spec.Tca_util.Faultgen.lsq_size;
      int_alu_units = spec.Tca_util.Faultgen.int_alu_units;
      int_mult_units = spec.Tca_util.Faultgen.int_mult_units;
      fp_units = spec.Tca_util.Faultgen.fp_units;
      mem_ports = spec.Tca_util.Faultgen.mem_ports;
      frontend_depth = spec.Tca_util.Faultgen.frontend_depth;
      commit_depth = spec.Tca_util.Faultgen.commit_depth;
      tca_speculate_fraction = spec.Tca_util.Faultgen.speculate_fraction;
      max_cycles = spec.Tca_util.Faultgen.watchdog_cycles;
    }
  in
  let len = 20 + (abs (Tca_util.Faultgen.size_adversarial g ~max:120) mod 120) in
  (cfg, hostile_trace g ~len)

(* A drawn branch predictor and memory latencies: any predictor kind,
   its table bits valid in [1, 16] or invalid, and L1/L2 hit and memory
   latencies that are now and then 0 or negative, so that runs reach
   what [Config.validate] rejects. Also returns whether any drawn value
   is out of range. Drawn from a stream of its own, like
   [with_unit_table], so the case's other inputs do not move. *)
let with_bpred_and_mem i (cfg : Tca_uarch.Config.t) =
  let open Tca_uarch in
  let g = Tca_util.Prng.create (Hashtbl.hash (seed, i, "bpred+mem")) in
  let pick n = Tca_util.Prng.int g n in
  let invalid = ref false in
  let bad v =
    invalid := true;
    v
  in
  let bits () =
    if pick 8 = 0 then bad [| -1; 0; 25; 30 |].(pick 4) else 1 + pick 16
  in
  let bpred =
    match pick 4 with
    | 0 -> Bpred.Perfect
    | 1 -> Bpred.Bimodal (bits ())
    | 2 -> Bpred.Gshare (bits ())
    | _ -> Bpred.Tournament (bits ())
  in
  let latency max = if pick 24 = 0 then bad (-pick 2) else 1 + pick max in
  let level (c : Cache.config) max =
    { c with Cache.hit_latency = latency max }
  in
  let l1 = level cfg.Config.mem.Mem_hier.l1 4 in
  let l2 = level cfg.Config.mem.Mem_hier.l2 24 in
  let mem_latency = latency 200 in
  ({ cfg with Config.bpred; mem = { Mem_hier.l1; l2; mem_latency } }, !invalid)

(* The same trace on a drawn accelerator table: 1-3 units with random
   configuration cost, core occupancy Pipelined or Exclusive, the accel
   instructions spread across the units, and now and then one invocation
   long enough (latency or line count past 8192) to book memory ports
   beyond their initial ring. Drawn from a stream of its own, seeded
   from the case index, so the case's other inputs do not move. *)
let with_unit_table i tag (cfg : Tca_uarch.Config.t) trace =
  let open Tca_uarch in
  let g = Tca_util.Faultgen.create ~seed:(Hashtbl.hash (seed, i, tag)) in
  let pick n = abs (Tca_util.Faultgen.size_adversarial g ~max:n) mod n in
  let modes = [| Tca_unit.Sync; Tca_unit.Queued; Tca_unit.Preprogrammed |] in
  let units =
    Array.init (1 + pick 3) (fun id ->
        Tca_unit.make ~config_mode:modes.(pick 3) ~config_latency:(pick 61)
          ~config_queue_depth:(1 + pick 4) id)
  in
  let occupancy = if pick 2 = 0 then Config.Pipelined else Config.Exclusive in
  let long = ref (pick 6 = 0) and long_reads = pick 2 = 0 in
  let spread (ins : Isa.instr) =
    match ins.Isa.op with
    | Isa.Accel a ->
        let a = { a with Isa.unit_id = pick (Array.length units) } in
        let a =
          if not !long then a
          else if long_reads then
            let n = 8193 + pick 1000 in
            { a with Isa.reads = Array.init n (fun k -> 64 * k) }
          else { a with Isa.compute_latency = 8192 + pick 2000 }
        in
        long := false;
        { ins with Isa.op = Isa.Accel a }
    | _ -> ins
  in
  ( Config.with_tca_units { cfg with Config.tca_occupancy = occupancy } units,
    Trace.of_array (Array.map spread trace.Trace.instrs) )

(* The packed columns against the records they were packed from: op,
   taken bit and registers of every uop (through [read] and through the
   accessors), the address of a load or store, the pc of a branch, and
   each invocation's side-table entry. *)
let check_packed i trace =
  let open Tca_uarch in
  let module D = Trace.Decoded in
  let d = Trace.decoded trace in
  let invocations = ref 0 in
  let u = D.uop () in
  let agrees k (ins : Isa.instr) =
    D.read d k u;
    u.D.op = D.op_code ins.Isa.op
    && u.D.taken = ins.Isa.taken
    && u.D.src1 = ins.Isa.src1
    && u.D.src2 = ins.Isa.src2
    && u.D.dst = ins.Isa.dst
    && D.op d k = u.D.op
    && D.taken d k = u.D.taken
    && D.src1 d k = u.D.src1
    && D.src2 d k = u.D.src2
    && D.dst d k = u.D.dst
    && D.addr d k = u.D.operand
    &&
    match ins.Isa.op with
    | Isa.Load | Isa.Store -> D.addr d k = ins.Isa.addr
    | Isa.Branch -> D.pc d k = ins.Isa.pc
    | Isa.Accel a ->
        let j = !invocations in
        incr invocations;
        let span off len = Array.init len (fun x -> D.pool d (off + x)) in
        D.invocation d j = k
        && D.accel_lat d k = a.Isa.compute_latency
        && D.accel_unit d k = a.Isa.unit_id
        && span (D.reads_off d k) (D.reads_len d k) = a.Isa.reads
        && span (D.writes_off d k) (D.writes_len d k) = a.Isa.writes
    | Isa.Int_alu | Isa.Int_mult | Isa.Fp_alu | Isa.Fp_mult -> true
  in
  guard i "Trace.decoded" (fun () ->
      let n = Trace.length trace in
      let rec first_bad k =
        if k >= n then None
        else if agrees k (Trace.get trace k) then first_bad (k + 1)
        else Some k
      in
      match first_bad 0 with
      | Some k ->
          record i "packed columns" (Printf.sprintf "instruction %d differs" k)
      | None ->
          if D.length d <> n || D.invocations d <> !invocations then
            record i "packed columns" "length or invocation count differs")

let uarch_case i g =
  let open Tca_uarch in
  let cfg, trace = hostile_case g in
  check_packed i trace;
  guard i "Pipeline.run" (fun () ->
      check_outcome i trace cfg (Pipeline.run cfg trace));
  (* Force the watchdog: a 2-cycle budget cannot finish any trace here,
     so a valid config must yield Partial, and an invalid one Error. *)
  let starved = { cfg with Config.max_cycles = Some 2 } in
  guard i "Pipeline.run (starved)" (fun () ->
      match Pipeline.run starved trace with
      | Ok (Pipeline.Complete _) ->
          record i "watchdog" "2-cycle budget reported Complete"
      | (Ok (Pipeline.Partial _) | Error _) as outcome ->
          check_outcome i trace starved outcome);
  let cfg, trace = with_unit_table i "uarch" cfg trace in
  check_packed i trace;
  guard i "Pipeline.run (unit table)" (fun () ->
      check_outcome i trace cfg (Pipeline.run cfg trace))

(* Differential oracle: the optimized pipeline must reproduce the
   pre-optimization reference implementation bit for bit — same
   Sim_stats, same outcome constructor, same diagnostics — on hostile
   configs and traces, whether or not the watchdog trips. It runs twice:
   uninstrumented, where it jumps quiet stretches, and with a probe,
   which makes it step every cycle. *)
let parity_case i g =
  let open Tca_uarch in
  let cfg, trace = hostile_case g in
  let cfg, invalid = with_bpred_and_mem i cfg in
  let key = function
    | Ok o ->
        "ok:"
        ^ Tca_util.Json.to_string
            (Sim_stats.to_json (Pipeline.stats_of_outcome o))
        ^ (match o with
          | Pipeline.Partial { diag; _ } -> "|" ^ Tca_util.Diag.to_string diag
          | Pipeline.Complete _ -> "")
    | Error d -> "error:" ^ Tca_util.Diag.to_string d
  in
  let probe =
    {
      Pipeline.on_cycle =
        (fun ~cycle:_ ~dispatched:_ ~issued:_ ~executing:_ ~rob_occupancy:_ ->
          ());
    }
  in
  let parity what cfg trace =
    guard i what (fun () ->
        let opt = key (Pipeline.run cfg trace) in
        let stepping = key (Pipeline.run ~probe cfg trace) in
        let oracle = key (Pipeline_reference.run cfg trace) in
        if opt <> oracle then
          record i "reference parity"
            (Printf.sprintf "optimized %s <> reference %s" opt oracle);
        if stepping <> oracle then
          record i "reference parity (stepping)"
            (Printf.sprintf "stepping %s <> reference %s" stepping oracle);
        if invalid && not (String.starts_with ~prefix:"error:" oracle) then
          record i "Config.validate"
            ("out-of-range predictor or memory latency ran: " ^ oracle))
  in
  parity "Pipeline vs Pipeline_reference" cfg trace;
  let cfg, trace = with_unit_table i "parity" cfg trace in
  parity "Pipeline vs Pipeline_reference (unit table)" cfg trace

let simulator_case i g =
  let open Tca_uarch in
  let cfg =
    { (Config.hp ()) with Config.max_cycles = Some (50 + (abs (Tca_util.Faultgen.size_adversarial g ~max:4000) mod 4000)) }
  in
  let baseline = hostile_trace g ~len:60 in
  let accelerated = hostile_trace g ~len:60 in
  guard i "Simulator.compare_modes" (fun () ->
      match Simulator.compare_modes ~cfg ~baseline ~accelerated () with
      | Error _ -> ()
      | Ok cmp ->
          finite i "comparison.baseline.ipc" cmp.Simulator.baseline.Sim_stats.ipc;
          List.iter
            (fun (r : Simulator.mode_result) ->
              finite i "mode_result.speedup" r.Simulator.speedup;
              match r.Simulator.partial with
              | None | Some (Tca_util.Diag.Watchdog _) -> ()
              | Some d ->
                  record i "Simulator.partial"
                    ("non-Watchdog diag: " ^ Tca_util.Diag.to_string d))
            cmp.Simulator.modes)

(* Telemetry must be pure observation: the same trace, config and seed
   with a sink attached has to produce bit-identical statistics to the
   plain run — including under hostile configs that trip the watchdog. *)
let telemetry_case i g =
  let open Tca_uarch in
  let cfg =
    {
      (Config.hp ()) with
      Config.max_cycles =
        Some (50 + (abs (Tca_util.Faultgen.size_adversarial g ~max:4000) mod 4000));
    }
  in
  let trace = hostile_trace g ~len:60 in
  guard i "Pipeline.run (telemetry on/off)" (fun () ->
      let plain = Pipeline.run cfg trace in
      let sink = Tca_telemetry.Sink.create () in
      let traced = Pipeline.run ~telemetry:sink cfg trace in
      let strip = function
        | Ok (Pipeline.Complete stats) -> Some (stats, None)
        | Ok (Pipeline.Partial { stats; diag }) -> Some (stats, Some diag)
        | Error _ -> None
      in
      if strip plain <> strip traced then
        record i "telemetry" "sink attachment changed simulation results")

(* Static analyzer parity: the lint pass is total over well-formed
   traces (never raises), and the static cycles lower bound never
   exceeds the cycle count of a completed simulation — under both TCA
   occupancy disciplines. *)
let analysis_case i g =
  let open Tca_uarch in
  let len = 10 + (abs (Tca_util.Faultgen.size_adversarial g ~max:150) mod 150) in
  let trace = hostile_trace g ~len in
  guard i "Lint.run_trace" (fun () -> ignore (Tca_analysis.Lint.run_trace trace));
  let cfg =
    let base = Config.hp () in
    if abs (Tca_util.Faultgen.size_adversarial g ~max:4) mod 2 = 0 then base
    else { base with Config.tca_occupancy = Config.Exclusive }
  in
  guard i "Analysis.bounds" (fun () ->
      let b = Tca_analysis.Analysis.bounds ~cfg trace in
      if b.Tca_analysis.Bounds.cycles_lower_bound < 0 then
        record i "bounds" "negative cycles lower bound";
      match Pipeline.run cfg trace with
      | Ok (Pipeline.Complete stats) ->
          if
            b.Tca_analysis.Bounds.cycles_lower_bound
            > stats.Tca_uarch.Sim_stats.cycles
          then
            record i "bounds"
              (Printf.sprintf "static lower bound %d > simulated %d cycles"
                 b.Tca_analysis.Bounds.cycles_lower_bound
                 stats.Tca_uarch.Sim_stats.cycles)
      | Ok (Pipeline.Partial _) | Error _ -> ())

(* The engine's core invariant under adversarial inputs: a parallel
   sweep is bit-identical to the serial one (polymorphic [compare]
   treats equal NaN cells as equal, so skip-and-record grids compare
   cleanly), and artifacts built from hostile floats survive the cache's
   lossless round-trip with a stable fingerprint. *)
let engine_case i g =
  let open Tca_model in
  guard i "engine par-vs-serial" (fun () ->
      let axis () =
        Tca_util.Faultgen.array_adversarial ~max_len:6 g
          Tca_util.Faultgen.float_adversarial
      in
      let freqs = axis () and coverages = axis () in
      let accel = Params.Factor (Tca_util.Faultgen.positive_adversarial g) in
      let sweep par =
        Grid.compute ?par Presets.hp_core ~accel ~freqs ~coverages Mode.L_T
      in
      let serial = sweep None in
      let parallel =
        Tca_engine.Pool.with_pool ~workers:3 (fun pool ->
            sweep (Some (Tca_engine.Pool.parmap pool)))
      in
      if compare serial parallel <> 0 then
        record i "engine" "parallel grid differs from serial");
  guard i "engine artifact roundtrip" (fun () ->
      let module A = Tca_engine.Artifact in
      let cell () =
        match abs (Tca_util.Faultgen.size_adversarial g ~max:4) mod 4 with
        | 0 -> A.flt (Tca_util.Faultgen.float_adversarial g)
        | 1 -> A.sci (Tca_util.Faultgen.float_adversarial g)
        | 2 -> A.pct (Tca_util.Faultgen.float_adversarial g)
        | _ -> A.int (Tca_util.Faultgen.size_adversarial g ~max:1_000_000)
      in
      let rows =
        List.init
          (1 + (abs (Tca_util.Faultgen.size_adversarial g ~max:8) mod 8))
          (fun _ -> [ cell (); cell () ])
      in
      let a =
        A.make ~job:"fuzz" ~title:"fuzz"
          [ A.Table (A.table ~name:"t" ~headers:[ "a"; "b" ] rows) ]
      in
      match A.deserialize (A.serialize a) with
      | Error d ->
          record i "engine" ("artifact roundtrip: " ^ Tca_util.Diag.to_string d)
      | Ok b ->
          if A.fingerprint a <> A.fingerprint b then
            record i "engine" "artifact fingerprint unstable across roundtrip")

(* --- semantic verifier layer --- *)

(* Differential oracle for the symbolic effect summary: on every hostile
   trace, [summarize] + [eval] must reproduce the concrete reference
   interpreter's final registers, memory cells and line owners exactly. *)
let effects_case i g =
  let open Tca_uarch in
  let len = 10 + (abs (Tca_util.Faultgen.size_adversarial g ~max:150) mod 150) in
  let trace = hostile_trace g ~len in
  guard i "Effects.check_agreement" (fun () ->
      match Tca_analysis.Effects.check_agreement trace.Trace.instrs with
      | Ok () -> ()
      | Error msg -> record i "effects differential" msg)

(* A mechanically equivalent baseline/accelerated pair: a common
   prologue, then per invocation a baseline region (load + alu into a
   result register) that the accelerated side replaces with one
   invocation declaring the loaded line, followed by a common epilogue
   that consumes the result register — so equivalence must route through
   the sigma binding, and corrupting either the invocation's destination
   or a common store must surface as a divergence. *)
let verify_pair g =
  let open Tca_uarch in
  let n_inv = 1 + (abs (Tca_util.Faultgen.size_adversarial g ~max:4) mod 4) in
  let base = ref [] and accel = ref [] in
  let push_both ins =
    base := ins :: !base;
    accel := ins :: !accel
  in
  push_both (Isa.int_alu ~dst:1 ());
  push_both (Isa.int_alu ~src1:1 ~dst:40 ());
  for k = 0 to n_inv - 1 do
    let r = 10 + k in
    let line = 0x4000 + (64 * k) in
    base :=
      Isa.int_alu ~src1:r ~src2:1 ~dst:r ()
      :: Isa.load ~base:1 ~dst:r ~addr:line ()
      :: !base;
    accel :=
      Isa.accel ~src1:1 ~dst:r
        ~compute_latency:
          (1 + (abs (Tca_util.Faultgen.size_adversarial g ~max:40) mod 40))
        ~reads:[| line |] ~writes:[||] ()
      :: !accel;
    push_both (Isa.int_alu ~src1:r ~src2:40 ~dst:40 ());
    push_both (Isa.store ~base:1 ~src:40 ~addr:(0x9000 + (8 * k)) ())
  done;
  (Array.of_list (List.rev !base), Array.of_list (List.rev !accel))

let verify_case i g =
  let open Tca_uarch in
  let baseline, accelerated = verify_pair g in
  guard i "Equiv.check (equivalent pair)" (fun () ->
      let r = Tca_analysis.Equiv.check ~baseline ~accelerated () in
      if not (Tca_analysis.Equiv.equivalent r) then
        record i "equiv false divergence"
          (match r.Tca_analysis.Equiv.verdict with
          | Tca_analysis.Equiv.Divergent w -> w.Tca_analysis.Equiv.reason
          | Tca_analysis.Equiv.Equivalent -> "inconsistent report"));
  (* Corrupt the destination register of every invocation: the common
     epilogue still reads the original result register, whose value now
     differs between the variants. *)
  guard i "Equiv.check (wrong accel dst)" (fun () ->
      let mutated =
        Array.map
          (fun (ins : Isa.instr) ->
            match ins.Isa.op with
            | Isa.Accel _ -> { ins with Isa.dst = 9 }
            | _ -> ins)
          accelerated
      in
      match
        (Tca_analysis.Equiv.check ~baseline ~accelerated:mutated ())
          .Tca_analysis.Equiv.verdict
      with
      | Tca_analysis.Equiv.Equivalent ->
          record i "equiv missed mutation" "wrong accel dst not caught"
      | Tca_analysis.Equiv.Divergent _ -> ());
  (* Retarget the first common store to a different line: caught as a
     stream misalignment under align and as a written-line domain
     mismatch under dataflow, so every strategy must diverge. *)
  guard i "Equiv.check (retargeted store)" (fun () ->
      let retargeted = ref false in
      let mutated =
        Array.map
          (fun (ins : Isa.instr) ->
            match ins.Isa.op with
            | Isa.Store when not !retargeted ->
                retargeted := true;
                { ins with Isa.addr = ins.Isa.addr + 0x1000 }
            | _ -> ins)
          accelerated
      in
      List.iter
        (fun strategy ->
          match
            (Tca_analysis.Equiv.check ~strategy ~baseline ~accelerated:mutated
               ())
              .Tca_analysis.Equiv.verdict
          with
          | Tca_analysis.Equiv.Equivalent ->
              record i "equiv missed mutation" "retargeted store not caught"
          | Tca_analysis.Equiv.Divergent _ -> ())
        [ `Auto; `Align; `Dataflow ]);
  guard i "Assume.audit" (fun () ->
      let n_inv =
        Array.fold_left
          (fun n (ins : Isa.instr) ->
            match ins.Isa.op with Isa.Accel _ -> n + 1 | _ -> n)
          0 accelerated
      in
      let a = Tca_analysis.Assume.audit ~baseline ~accelerated () in
      if a.Tca_analysis.Assume.invocations <> n_inv then
        record i "assume"
          (Printf.sprintf "audit counted %d invocations, trace has %d"
             a.Tca_analysis.Assume.invocations n_inv);
      ignore (Tca_analysis.Assume.to_json a))

(* Robustness of the verifier on unrelated hostile traces: any verdict
   is acceptable, raising is not. *)
let verify_hostile_case i g =
  let open Tca_uarch in
  let baseline = (hostile_trace g ~len:50).Trace.instrs in
  let accelerated = (hostile_trace g ~len:50).Trace.instrs in
  guard i "Equiv.check (hostile pair)" (fun () ->
      ignore (Tca_analysis.Equiv.check ~baseline ~accelerated ()));
  guard i "Assume.audit (hostile pair)" (fun () ->
      ignore
        (Tca_analysis.Assume.to_json
           (Tca_analysis.Assume.audit ~baseline ~accelerated ())))

let () =
  let g = Tca_util.Faultgen.create ~seed in
  for i = 1 to cases do
    model_case i g;
    util_case i g;
    if i mod 5 = 0 then effects_case i g;
    if i mod 10 = 0 then grid_case i g;
    if i mod 10 = 0 then verify_case i g;
    if i mod 25 = 0 then uarch_case i g;
    if i mod 25 = 0 then parity_case i g;
    if i mod 25 = 0 then analysis_case i g;
    if i mod 50 = 0 then telemetry_case i g;
    if i mod 50 = 0 then verify_hostile_case i g;
    if i mod 100 = 0 then simulator_case i g;
    if i mod 100 = 0 then engine_case i g
  done;
  match !failures with
  | [] ->
      Printf.printf
        "fuzz_robustness: %d cases (%d guarded API calls), seed %#x: OK\n"
        cases !checks seed
  | fs ->
      let fs = List.rev fs in
      Printf.eprintf
        "fuzz_robustness: %d failure(s) in %d cases (seed %#x):\n"
        (List.length fs) cases seed;
      List.iteri
        (fun k (case, what, detail) ->
          if k < 20 then
            Printf.eprintf "  case %d [%s]: %s\n" case what detail)
        fs;
      if List.length fs > 20 then
        Printf.eprintf "  ... and %d more\n" (List.length fs - 20);
      exit 1
