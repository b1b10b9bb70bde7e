open Tca_workloads
open Tca_uarch

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* --- Codegen --- *)

let test_codegen_block_length () =
  let rng = Tca_util.Prng.create 1 in
  let gen = Codegen.create ~rng () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b 123;
  Alcotest.(check int) "exact length" 123 (Trace.Builder.length b)

let test_codegen_branch_sites_reused () =
  let rng = Tca_util.Prng.create 2 in
  let gen = Codegen.create ~rng () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b 5000;
  let t = Trace.Builder.build b in
  let pcs = Hashtbl.create 64 in
  Trace.iter
    (fun ins ->
      if ins.Isa.op = Isa.Branch then
        Hashtbl.replace pcs ins.Isa.pc
          (1 + Option.value ~default:0 (Hashtbl.find_opt pcs ins.Isa.pc)))
    t;
  Alcotest.(check bool) "bounded site count" true (Hashtbl.length pcs <= 64);
  let reused = Hashtbl.fold (fun _ n acc -> acc || n > 1) pcs false in
  Alcotest.(check bool) "sites repeat" true reused

let test_codegen_determinism () =
  let build () =
    let rng = Tca_util.Prng.create 3 in
    let gen = Codegen.create ~rng () in
    let b = Trace.Builder.create () in
    Codegen.emit_block gen b 500;
    Trace.Builder.build b
  in
  let t1 = build () and t2 = build () in
  Alcotest.(check int) "same length" (Trace.length t1) (Trace.length t2);
  for i = 0 to Trace.length t1 - 1 do
    Alcotest.(check bool) "identical" true (Trace.get t1 i = Trace.get t2 i)
  done

let test_codegen_validation () =
  let rng = Tca_util.Prng.create 4 in
  Alcotest.check_raises "dep_window"
    (Invalid_argument "Codegen.create: dep_window out of [2, 40]") (fun () ->
      ignore
        (Codegen.create
           ~config:{ Codegen.default_config with Codegen.dep_window = 1 }
           ~rng ()));
  Alcotest.check_raises "bias"
    (Invalid_argument "Codegen.create: branch_bias out of [0.5, 1]") (fun () ->
      ignore
        (Codegen.create
           ~config:{ Codegen.default_config with Codegen.branch_bias = 0.2 }
           ~rng ()))

let test_codegen_mix () =
  let rng = Tca_util.Prng.create 5 in
  let gen = Codegen.create ~rng () in
  let b = Trace.Builder.create () in
  Codegen.emit_block gen b 6000;
  let c = Trace.counts (Trace.Builder.build b) in
  Alcotest.(check bool) "has branches" true (c.Trace.branches > 500);
  Alcotest.(check bool) "has loads" true (c.Trace.loads > 800);
  Alcotest.(check bool) "has stores" true (c.Trace.stores > 300);
  Alcotest.(check bool) "no accels" true (c.Trace.accels = 0)

let accel ~reads ~writes ~compute_latency =
  Isa.accel ~compute_latency
    ~reads:(Array.init reads (fun k -> 64 * k))
    ~writes:(Array.init writes (fun k -> 0x1000 + (64 * k)))
    ()

(* Calls are single accel instructions, which [Codegen] never emits, so
   the instructions before each one are its application block. *)
let test_call_sites () =
  List.iter
    (fun mean_gap ->
      let t =
        Codegen.call_sites ~app_rng:(Tca_util.Prng.create 1)
          ~gap_rng:(Tca_util.Prng.create mean_gap) ~mean_gap
          (Array.make 200 ())
          (fun b () ->
            Trace.Builder.add b (accel ~reads:0 ~writes:0 ~compute_latency:1))
      in
      let h = if mean_gap = 0 then 0 else max 1 (mean_gap / 2) in
      let block = ref 0 and calls = ref 0 in
      Trace.iter
        (fun ins ->
          match ins.Isa.op with
          | Isa.Accel _ ->
              if abs (!block - mean_gap) > h then
                Alcotest.failf "mean %d: block of %d" mean_gap !block;
              incr calls;
              block := 0
          | _ -> incr block)
        t;
      Alcotest.(check (pair int int)) "calls, trailing code" (200, 0)
        (!calls, !block))
    [ 0; 1; 2; 3; 10; 60; 101 ]

(* --- Meta --- *)

let tiny_trace n =
  let b = Trace.Builder.create () in
  for i = 0 to n - 1 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 4) ())
  done;
  Trace.Builder.build b

let test_meta_make () =
  (* Three invocations declaring 2, 3 and 7 read lines and 0, 1 and 1
     write lines, after 80 other instructions: they replace 20 of the
     100 baseline instructions. *)
  let accelerated =
    Trace.of_array
      (Array.append (tiny_trace 80).Trace.instrs
         (Array.map
            (fun (reads, writes) -> accel ~reads ~writes ~compute_latency:3)
            [| (2, 0); (3, 1); (7, 1) |]))
  in
  let m =
    (Meta.make ~name:"t" ~baseline:(tiny_trace 100) ~accelerated
       ~fresh_lines:(fun ~reads -> reads /. 2.0)
       ~compute_latency:3 ())
      .Meta.meta
  in
  Alcotest.(check (list int)) "invocations, acceleratable" [ 3; 20 ]
    Meta.[ m.invocations; m.acceleratable_instrs ];
  Alcotest.(check (list (float 0.0))) "v, a, reads, writes, fresh"
    [ 0.03; 0.2; 4.0; 2.0 /. 3.0; 2.0 ]
    Meta.[ m.v; m.a; m.avg_reads_per_invocation;
           m.avg_writes_per_invocation; m.avg_fresh_lines_per_invocation ];
  (* No invocation, as synthetic's valid n_chunks = 0 generates. *)
  let m =
    (Synthetic.generate
       (Synthetic.config ~n_units:20 ~n_chunks:0 ~accel_latency:5 ()))
      .Meta.meta
  in
  Alcotest.(check (list (float 0.0))) "no invocation: v, a, reads, writes"
    [ 0.0; 0.0; 0.0; 0.0 ]
    Meta.[ m.v; m.a; m.avg_reads_per_invocation; m.avg_writes_per_invocation ]

let test_meta_validation () =
  (* More non-invocation instructions than the whole baseline. *)
  Alcotest.check_raises "a out of range"
    (Invalid_argument "Meta.make: acceleratable fraction out of range")
    (fun () ->
      ignore
        (Meta.make ~name:"t" ~baseline:(tiny_trace 10)
           ~accelerated:(tiny_trace 20) ~compute_latency:1 ()))

let test_meta_latency_estimate () =
  (* One invocation on Config.hp: 2-cycle L1, 12-cycle L2, two ports. *)
  let estimate ?fresh_lines ~reads ~writes compute_latency =
    let accelerated = Trace.of_array [| accel ~reads ~writes ~compute_latency |]
    and baseline = tiny_trace 10 in
    Tca_experiments.Exp_common.meta_latency ~cfg:(Config.hp ())
      (Meta.make ~name:"t" ~baseline ~accelerated ?fresh_lines
         ~compute_latency ())
        .Meta.meta
  in
  Alcotest.(check (list (float 1e-9)))
    "2 + (9-1)/2 + 6 + 4/2; plus one L2 depth for fresh lines; compute only"
    [ 14.0; 26.0; 1.0 ]
    [
      estimate ~reads:9 ~writes:4 6;
      estimate ~fresh_lines:(fun ~reads:_ -> 2.0) ~reads:9 ~writes:4 6;
      estimate ~reads:0 ~writes:0 1;
    ]

(* --- Synthetic --- *)

let test_synthetic_structure () =
  let cfg = Synthetic.config ~n_units:100 ~n_chunks:20 ~accel_latency:10 () in
  let pair = Synthetic.generate cfg in
  Alcotest.(check int) "baseline length" (100 * 50)
    pair.Meta.meta.Meta.baseline_instrs;
  let counts = Trace.counts pair.Meta.accelerated in
  Alcotest.(check int) "accel count" 20 counts.Trace.accels;
  Alcotest.(check int) "accelerated length" ((80 * 50) + 20)
    pair.Meta.meta.Meta.accelerated_instrs;
  Alcotest.(check bool) "a" true (feq pair.Meta.meta.Meta.a 0.2);
  Alcotest.(check bool) "v" true (feq pair.Meta.meta.Meta.v (20.0 /. 5000.0));
  Alcotest.(check int) "no accel in baseline" 0
    (Trace.counts pair.Meta.baseline).Trace.accels

let test_synthetic_validation () =
  Alcotest.check_raises "chunks"
    (Invalid_argument "Synthetic.config: n_chunks out of range") (fun () ->
      ignore (Synthetic.config ~n_units:10 ~n_chunks:11 ~accel_latency:1 ()));
  Alcotest.check_raises "latency"
    (Invalid_argument "Synthetic.config: accel_latency below 1") (fun () ->
      ignore (Synthetic.config ~n_units:10 ~n_chunks:1 ~accel_latency:0 ()))

let test_synthetic_determinism () =
  let cfg = Synthetic.config ~n_units:50 ~n_chunks:10 ~accel_latency:5 ~seed:9 () in
  let p1 = Synthetic.generate cfg and p2 = Synthetic.generate cfg in
  Alcotest.(check int) "same accelerated length"
    (Trace.length p1.Meta.accelerated)
    (Trace.length p2.Meta.accelerated);
  for i = 0 to Trace.length p1.Meta.baseline - 1 do
    Alcotest.(check bool) "identical baselines" true
      (Trace.get p1.Meta.baseline i = Trace.get p2.Meta.baseline i)
  done

let test_synthetic_latency_for_factor () =
  Alcotest.(check int) "50 uops at A=2, ipc=2" 13
    (Synthetic.latency_for_factor ~unit_len:50 ~ipc:2.0 ~accel_factor:2.0);
  Alcotest.(check int) "minimum 1" 1
    (Synthetic.latency_for_factor ~unit_len:1 ~ipc:4.0 ~accel_factor:10.0)

let prop_synthetic_meta_consistent =
  qtest "synthetic meta matches generated traces"
    QCheck.(pair (int_range 10 80) (int_range 0 10))
    (fun (n_units, n_chunks) ->
      let n_chunks = min n_chunks n_units in
      let cfg = Synthetic.config ~n_units ~n_chunks ~accel_latency:4 () in
      let pair = Synthetic.generate cfg in
      (Trace.counts pair.Meta.accelerated).Trace.accels = n_chunks
      && pair.Meta.meta.Meta.baseline_instrs = Trace.length pair.Meta.baseline)

(* --- Heap workload --- *)

let test_heap_workload_structure () =
  let cfg = Heap_workload.config ~n_calls:100 ~app_instrs_per_call:50 () in
  let pair = Heap_workload.generate cfg in
  Alcotest.(check int) "invocations" 100 pair.Meta.meta.Meta.invocations;
  Alcotest.(check int) "no accel in baseline" 0
    (Trace.counts pair.Meta.baseline).Trace.accels;
  Alcotest.(check bool) "acceleratable fraction sane" true
    (pair.Meta.meta.Meta.a > 0.2 && pair.Meta.meta.Meta.a < 0.8);
  Alcotest.(check int) "single-cycle TCA" 1 pair.Meta.meta.Meta.compute_latency

let test_heap_workload_expected_fraction () =
  let cfg = Heap_workload.config ~n_calls:100 ~app_instrs_per_call:53 () in
  Alcotest.(check bool) "53/106" true
    (feq (Heap_workload.expected_call_fraction cfg) 0.5)

let test_heap_workload_determinism () =
  let cfg = Heap_workload.config ~n_calls:50 ~app_instrs_per_call:30 ~seed:4 () in
  let p1 = Heap_workload.generate cfg and p2 = Heap_workload.generate cfg in
  Alcotest.(check int) "same baseline"
    (Trace.length p1.Meta.baseline)
    (Trace.length p2.Meta.baseline);
  Alcotest.(check int) "same accelerated"
    (Trace.length p1.Meta.accelerated)
    (Trace.length p2.Meta.accelerated)

(* The accelerated trace without its invocations is a subsequence of
   the baseline, PCs aside (the builder numbers them in order). *)
let test_variants_share_app_code () =
  let strip (ins : Isa.instr) = { ins with Isa.pc = 0 } in
  List.iter
    (fun (name, (pair : Meta.pair)) ->
      let base = Array.map strip pair.Meta.baseline.Trace.instrs in
      let j = ref 0 in
      Trace.iter
        (fun ins ->
          match ins.Isa.op with
          | Isa.Accel _ -> ()
          | _ ->
              while !j < Array.length base && base.(!j) <> strip ins do
                incr j
              done;
              if !j = Array.length base then
                Alcotest.failf "%s: application code differs" name;
              incr j)
        pair.Meta.accelerated)
    (List.filter
       (fun (name, _) -> List.mem name [ "heap"; "hashmap"; "regex"; "strfn" ])
       (Tca_experiments.Exp_common.golden_pairs ()))

let test_heap_workload_validation () =
  Alcotest.check_raises "n_calls"
    (Invalid_argument "Heap_workload.config: n_calls must be positive")
    (fun () ->
      ignore (Heap_workload.config ~n_calls:0 ~app_instrs_per_call:10 ()))

(* --- Dgemm workload --- *)

let test_dgemm_baseline_structure () =
  let cfg = Dgemm_workload.config ~n:32 () in
  let t = Dgemm_workload.baseline cfg in
  (* One loop-counter prologue instruction, then the element kernels. *)
  let expected = 1 + (32 * 32 * Dgemm_workload.kernel_uops_per_element cfg) in
  Alcotest.(check int) "kernel size formula" expected (Trace.length t);
  let c = Trace.counts t in
  (* 2 loads per MAC plus the C-element load. *)
  Alcotest.(check int) "loads" ((32 * 32 * 32 * 2) + (32 * 32)) c.Trace.loads;
  Alcotest.(check int) "stores" (32 * 32) c.Trace.stores;
  Alcotest.(check int) "fp mults" (32 * 32 * 32) c.Trace.fp_mult

let test_dgemm_accelerated_structure () =
  let cfg = Dgemm_workload.config ~n:32 () in
  List.iter
    (fun dim ->
      let pair = Dgemm_workload.pair cfg ~dim in
      let blocks = 32 / dim in
      let expected_invocations = blocks * blocks * blocks in
      Alcotest.(check int)
        (Printf.sprintf "invocations dim %d" dim)
        expected_invocations pair.Meta.meta.Meta.invocations;
      (* Reads cover three dim x dim blocks: at least one line per row
         of A, B and C. *)
      Alcotest.(check bool) "reads per invocation" true
        (pair.Meta.meta.Meta.avg_reads_per_invocation
         >= float_of_int (3 * dim));
      Alcotest.(check bool) "writes per invocation" true
        (pair.Meta.meta.Meta.avg_writes_per_invocation >= float_of_int dim))
    Tca_dgemm.Mma.supported_dims

let test_dgemm_coverage_high () =
  let cfg = Dgemm_workload.config ~n:32 () in
  let pair = Dgemm_workload.pair cfg ~dim:4 in
  Alcotest.(check bool) "dgemm is nearly all acceleratable" true
    (pair.Meta.meta.Meta.a > 0.9)

let test_dgemm_validation () =
  Alcotest.check_raises "block divides"
    (Invalid_argument "Dgemm_workload.config: block must divide n") (fun () ->
      ignore (Dgemm_workload.config ~n:33 ()));
  let cfg = Dgemm_workload.config ~n:32 () in
  Alcotest.check_raises "dim supported"
    (Invalid_argument "Dgemm_workload.accelerated: unsupported dim")
    (fun () -> ignore (Dgemm_workload.pair cfg ~dim:3))

let test_dgemm_addresses_disjoint () =
  let cfg = Dgemm_workload.config ~n:32 () in
  Alcotest.(check bool) "A < B < C bases" true
    (cfg.Dgemm_workload.a_base < cfg.Dgemm_workload.b_base
    && cfg.Dgemm_workload.b_base < cfg.Dgemm_workload.c_base);
  Alcotest.(check bool) "no overlap" true
    (cfg.Dgemm_workload.b_base - cfg.Dgemm_workload.a_base >= 8 * 32 * 32)

(* --- Greendroid --- *)

let test_greendroid () =
  Alcotest.(check int) "nine functions" 9 (List.length Greendroid.functions);
  List.iter
    (fun (f : Greendroid.fn) ->
      Alcotest.(check bool) "hundreds of instructions" true
        (f.Greendroid.static_instrs > 50 && f.Greendroid.static_instrs < 2000))
    Greendroid.functions;
  Alcotest.(check bool) "A = 1.5" true (feq Greendroid.accel_factor 1.5);
  Alcotest.(check int) "granularities" 9
    (Array.length (Greendroid.granularities ()));
  Alcotest.(check bool) "heap granularity = (69+37)/2" true
    (feq Greendroid.heap_manager_granularity 53.0);
  Alcotest.(check bool) "mean in range" true
    (Greendroid.mean_granularity () > 100.0
    && Greendroid.mean_granularity () < 1000.0)

let () =
  Alcotest.run "tca_workloads"
    [
      ( "codegen",
        [
          Alcotest.test_case "block length" `Quick test_codegen_block_length;
          Alcotest.test_case "branch sites reused" `Quick test_codegen_branch_sites_reused;
          Alcotest.test_case "determinism" `Quick test_codegen_determinism;
          Alcotest.test_case "validation" `Quick test_codegen_validation;
          Alcotest.test_case "mix" `Quick test_codegen_mix;
          Alcotest.test_case "call sites" `Quick test_call_sites;
        ] );
      ( "meta",
        [
          Alcotest.test_case "make" `Quick test_meta_make;
          Alcotest.test_case "validation" `Quick test_meta_validation;
          Alcotest.test_case "latency estimate" `Quick test_meta_latency_estimate;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "structure" `Quick test_synthetic_structure;
          Alcotest.test_case "validation" `Quick test_synthetic_validation;
          Alcotest.test_case "determinism" `Quick test_synthetic_determinism;
          Alcotest.test_case "latency_for_factor" `Quick test_synthetic_latency_for_factor;
          prop_synthetic_meta_consistent;
        ] );
      ( "heap_workload",
        [
          Alcotest.test_case "structure" `Quick test_heap_workload_structure;
          Alcotest.test_case "expected fraction" `Quick test_heap_workload_expected_fraction;
          Alcotest.test_case "determinism" `Quick test_heap_workload_determinism;
          Alcotest.test_case "variants share app code" `Quick
            test_variants_share_app_code;
          Alcotest.test_case "validation" `Quick test_heap_workload_validation;
        ] );
      ( "dgemm_workload",
        [
          Alcotest.test_case "baseline structure" `Quick test_dgemm_baseline_structure;
          Alcotest.test_case "accelerated structure" `Quick test_dgemm_accelerated_structure;
          Alcotest.test_case "coverage high" `Quick test_dgemm_coverage_high;
          Alcotest.test_case "validation" `Quick test_dgemm_validation;
          Alcotest.test_case "addresses disjoint" `Quick test_dgemm_addresses_disjoint;
        ] );
      ("greendroid", [ Alcotest.test_case "data" `Quick test_greendroid ]);
    ]
