open Tca_uarch

(* Fixed generator stream: the cycle-monotonicity properties carry
   slack tolerances for interleaving noise, and an unlucky draw can
   exceed them — run-to-run nondeterminism, not a simulator bug. A
   pinned seed keeps the suite deterministic; vary it deliberately when
   hunting for new counterexamples. *)
let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x7ca; Hashtbl.hash name |])
    (QCheck.Test.make ~count ~name gen prop)

(* --- Isa --- *)

let test_isa_constructors () =
  let i = Isa.int_alu ~src1:1 ~src2:2 ~dst:3 () in
  Alcotest.(check int) "dst" 3 i.Isa.dst;
  Alcotest.(check bool) "not mem" false (Isa.is_mem i);
  let l = Isa.load ~dst:4 ~addr:128 () in
  Alcotest.(check bool) "load is mem" true (Isa.is_mem l);
  let s = Isa.store ~addr:64 () in
  Alcotest.(check bool) "store is mem" true (Isa.is_mem s);
  let b = Isa.branch ~taken:true () in
  Alcotest.(check bool) "branch taken" true b.Isa.taken

let test_isa_register_validation () =
  Alcotest.check_raises "reg out of range"
    (Invalid_argument
       (Printf.sprintf "Isa.int_alu: register %d out of range"
          Isa.num_arch_regs)) (fun () ->
      ignore (Isa.int_alu ~dst:Isa.num_arch_regs ()))

let test_isa_addr_validation () =
  Alcotest.check_raises "negative addr"
    (Invalid_argument "Isa.load: negative address") (fun () ->
      ignore (Isa.load ~dst:0 ~addr:(-8) ()))

let test_isa_accel () =
  let a =
    Isa.accel ~compute_latency:5 ~reads:[| 0; 64 |] ~writes:[| 128 |] ()
  in
  (match a.Isa.op with
  | Isa.Accel acc ->
      Alcotest.(check int) "latency" 5 acc.Isa.compute_latency;
      Alcotest.(check int) "reads" 2 (Array.length acc.Isa.reads)
  | _ -> Alcotest.fail "expected accel");
  Alcotest.(check bool) "accel not mem-queued" false (Isa.is_mem a);
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Isa.accel: negative compute latency") (fun () ->
      ignore (Isa.accel ~compute_latency:(-1) ~reads:[||] ~writes:[||] ()))

let test_isa_op_names () =
  Alcotest.(check string) "alu" "int_alu" (Isa.op_name Isa.Int_alu);
  Alcotest.(check string) "branch" "branch" (Isa.op_name Isa.Branch)

(* --- Trace --- *)

let test_trace_builder_pcs () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.int_alu ~dst:1 ());
  let t = Trace.Builder.build b in
  Alcotest.(check int) "length" 2 (Trace.length t);
  Alcotest.(check int) "pc 0" 0 (Trace.get t 0).Isa.pc;
  Alcotest.(check int) "pc 4" 4 (Trace.get t 1).Isa.pc

let test_trace_add_at_site () =
  let b = Trace.Builder.create () in
  Trace.Builder.add_at_site b (Isa.branch ~pc:0x999 ~taken:true ());
  let t = Trace.Builder.build b in
  Alcotest.(check int) "site pc kept" 0x999 (Trace.get t 0).Isa.pc

let test_trace_builder_growth () =
  let b = Trace.Builder.create ~capacity:2 () in
  for i = 0 to 99 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 8) ())
  done;
  Alcotest.(check int) "grew" 100 (Trace.Builder.length b);
  Alcotest.(check int) "built" 100 (Trace.length (Trace.Builder.build b))

let test_trace_validate_bad_reg () =
  let bad = { (Isa.int_alu ~dst:0 ()) with Isa.src1 = 1000 } in
  match Trace.validate [| bad |] with
  | Error msg ->
      Alcotest.(check bool) "mentions instruction" true
        (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected validation error"

let test_trace_counts () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.load ~dst:1 ~addr:0 ());
  Trace.Builder.add b (Isa.store ~addr:0 ());
  Trace.Builder.add b (Isa.branch ~taken:false ());
  Trace.Builder.add b (Isa.fp_mult ~dst:2 ());
  Trace.Builder.add b (Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] ());
  let c = Trace.counts (Trace.Builder.build b) in
  Alcotest.(check int) "total" 6 c.Trace.total;
  Alcotest.(check int) "alu" 1 c.Trace.int_alu;
  Alcotest.(check int) "loads" 1 c.Trace.loads;
  Alcotest.(check int) "stores" 1 c.Trace.stores;
  Alcotest.(check int) "branches" 1 c.Trace.branches;
  Alcotest.(check int) "fp mult" 1 c.Trace.fp_mult;
  Alcotest.(check int) "accels" 1 c.Trace.accels

let test_trace_io_roundtrip () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~src1:1 ~src2:2 ~dst:3 ());
  Trace.Builder.add b (Isa.load ~base:4 ~dst:5 ~addr:4096 ());
  Trace.Builder.add b (Isa.store ~src:6 ~addr:8192 ());
  Trace.Builder.add_at_site b (Isa.branch ~pc:0x777 ~taken:true ());
  Trace.Builder.add b
    (Isa.accel ~src1:7 ~dst:8 ~compute_latency:9 ~reads:[| 64; 128 |]
       ~writes:[| 256 |] ());
  let t = Trace.Builder.build b in
  (* A fresh directory, so the listing shows any temp file the atomic
     write left behind. *)
  let dir = Filename.temp_file "tca" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "t.trace" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Trace.save path t;
      (* written twice: the second write replaces the first *)
      Trace.save path t;
      Alcotest.(check (array string)) "only the trace file" [| "t.trace" |]
        (Sys.readdir dir);
      let t' = Trace.load path in
      Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
      for i = 0 to Trace.length t - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "instr %d" i)
          true
          (Trace.get t i = Trace.get t' i)
      done)

let test_trace_io_rejects_garbage () =
  let check_fails content =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        Alcotest.(check bool) "rejected" true
          (try
             ignore (Trace.load path);
             false
           with Failure _ -> true))
  in
  check_fails "";
  check_fails "not a trace\n";
  check_fails "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n";
  check_fails "tca-trace 1 1\n0 bogus 0 -1 -1 0 false\n";
  check_fails "tca-trace 1 1\n0 accel 0 -1 -1 0 false 5 2 64\n"

(* Every parser failure must identify the offending line so a corrupted
   trace file can be repaired by hand. *)
let test_trace_io_error_messages () =
  let msg_of content =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        try
          ignore (Trace.load path);
          Alcotest.fail "expected Failure"
        with Failure m -> m)
  in
  let contains what hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S in %S" what needle hay)
      true (scan 0)
  in
  let m = msg_of "tca-trace 1\n" in
  contains "truncated header" m "bad header";
  let m = msg_of "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n" in
  contains "truncated body" m "expected 2 instructions, got 1";
  let m = msg_of "tca-trace 1 1\n0 bogus 0 -1 -1 0 false\n" in
  contains "bad opcode" m "line 2";
  contains "bad opcode" m "bogus";
  let m = msg_of "tca-trace 1 1\n0 int_alu 64 -1 -1 0 false\n" in
  contains "register range" m "line 2";
  contains "register range" m "dst register 64 out of range";
  let m =
    msg_of
      "tca-trace 1 2\n0 int_alu 0 -1 -1 0 false\n4 int_alu 1 -99 -1 0 false\n"
  in
  contains "register range line number" m "line 3";
  contains "register range line number" m "src1 register -99 out of range";
  let m = msg_of "tca-trace 1 1\n0 int_alu 0 -1 -1 0 false\njunk\n" in
  contains "trailing garbage" m "line 3";
  contains "trailing garbage" m "trailing garbage";
  (* The header's count sizes nothing: a short file claiming ten million
     instructions fails at its end having allocated for two. *)
  let before = Gc.allocated_bytes () in
  let m =
    msg_of
      "tca-trace 1 10000000\n0 int_alu 0 -1 -1 0 false\n\
       4 int_alu 1 -1 -1 0 false\n"
  in
  let grown = Gc.allocated_bytes () -. before in
  contains "inflated count" m "expected 10000000 instructions, got 2";
  Alcotest.(check bool)
    (Printf.sprintf "inflated count allocates under 1 MB (%.0f bytes)" grown)
    true (grown < 1e6)

(* Every accessor of the packed columns against the record it was
   packed from, and [read] against the accessors; the first
   disagreement, if any. *)
let packed_mismatch t =
  let module D = Trace.Decoded in
  let d = Trace.decoded t in
  let n = Trace.length t in
  let u = D.uop () in
  let bad = ref None in
  let check i what ok =
    if !bad = None && not ok then
      bad := Some (Printf.sprintf "instruction %d: %s" i what)
  in
  check n "length" (D.length d = n);
  let invocations = ref 0 in
  for i = 0 to n - 1 do
    let ins = Trace.get t i in
    check i "op" (D.op d i = D.op_code ins.Isa.op);
    check i "taken" (D.taken d i = ins.Isa.taken);
    check i "src1" (D.src1 d i = ins.Isa.src1);
    check i "src2" (D.src2 d i = ins.Isa.src2);
    check i "dst" (D.dst d i = ins.Isa.dst);
    D.read d i u;
    check i "read"
      (u.D.op = D.op d i && u.D.taken = D.taken d i && u.D.src1 = D.src1 d i
     && u.D.src2 = D.src2 d i && u.D.dst = D.dst d i
     && u.D.operand = D.addr d i);
    match ins.Isa.op with
    | Isa.Load | Isa.Store -> check i "addr" (D.addr d i = ins.Isa.addr)
    | Isa.Branch -> check i "pc" (D.pc d i = ins.Isa.pc)
    | Isa.Accel a ->
        let j = !invocations in
        incr invocations;
        check i "invocation index"
          (j < D.invocations d && D.invocation d j = i);
        check i "latency" (D.accel_lat d i = a.Isa.compute_latency);
        check i "unit" (D.accel_unit d i = a.Isa.unit_id);
        let span off len = Array.init len (fun k -> D.pool d (off + k)) in
        check i "reads" (span (D.reads_off d i) (D.reads_len d i) = a.Isa.reads);
        check i "writes"
          (span (D.writes_off d i) (D.writes_len d i) = a.Isa.writes)
    | Isa.Int_alu | Isa.Int_mult | Isa.Fp_alu | Isa.Fp_mult -> ()
  done;
  check n "invocation count" (D.invocations d = !invocations);
  !bad

let test_trace_packed_columns () =
  let check label t =
    match packed_mismatch t with
    | None -> ()
    | Some m -> Alcotest.fail (label ^ ": " ^ m)
  in
  let check_pair label (p : Tca_workloads.Meta.pair) =
    check (label ^ " baseline") p.Tca_workloads.Meta.baseline;
    check (label ^ " accelerated") p.Tca_workloads.Meta.accelerated
  in
  let open Tca_experiments in
  List.iter
    (fun (name, p) -> check_pair ("golden " ^ name) p)
    (Exp_common.golden_pairs ());
  (* the nine pairs of [tca verify all]; the last three are multi-unit *)
  let cfg = Exp_common.validation_core () in
  List.iter
    (fun (name, kind) ->
      check_pair ("verify " ^ name) (fst (Exp_common.workload_pair ~cfg kind)))
    Exp_common.workload_kinds;
  List.iter
    (fun kind ->
      check_pair
        ("verify " ^ Tca_workloads.Multi_tca.kind_name kind)
        (Tca_workloads.Multi_tca.generate (Tca_workloads.Multi_tca.config kind))
          .Tca_workloads.Multi_tca.pair)
    Tca_workloads.Multi_tca.all_kinds;
  (* Hand-built edges: r63 and [no_reg] in every register field, a
     branch keeping its own pc, invocations with no reads and with no
     writes, on units 0 to 3. *)
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~src1:63 ~src2:0 ~dst:63 ());
  Trace.Builder.add b (Isa.int_mult ~dst:1 ());
  Trace.Builder.add b (Isa.fp_alu ~src2:62 ~dst:2 ());
  Trace.Builder.add b (Isa.fp_mult ~src1:2 ~src2:2 ~dst:3 ());
  Trace.Builder.add_at_site b (Isa.branch ~pc:0x777 ~src1:63 ~taken:true ());
  Trace.Builder.add b (Isa.branch ~taken:false ());
  Trace.Builder.add b (Isa.load ~base:63 ~dst:4 ~addr:(1 lsl 40) ());
  Trace.Builder.add b (Isa.store ~src:4 ~addr:0 ());
  Trace.Builder.add b
    (Isa.accel ~unit_id:3 ~compute_latency:0 ~reads:[||] ~writes:[| 64; 128 |]
       ());
  Trace.Builder.add b
    (Isa.accel ~src1:63 ~dst:63 ~unit_id:1 ~compute_latency:5
       ~reads:[| 192 |] ~writes:[||] ());
  Trace.Builder.add b
    (Isa.accel ~compute_latency:7 ~reads:[||] ~writes:[||] ());
  Trace.Builder.add b
    (Isa.accel ~unit_id:2 ~compute_latency:2 ~reads:[| 256; 320 |]
       ~writes:[| 384 |] ());
  check "hand-built" (Trace.Builder.build b);
  (* A negative pc only arrives through the text format. *)
  let path = Filename.temp_file "tca" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "tca-trace 1 3\n-8 branch -1 5 -1 0 true\n-4 int_alu 5 -1 -1 0 false\n\
         -1 branch -1 -1 -1 0 false\n";
      close_out oc;
      let t = Trace.load path in
      Alcotest.(check int) "negative pc kept" (-8) (Trace.get t 0).Isa.pc;
      check "negative pc" t);
  check "empty" (Trace.of_array [||])

let test_trace_validate_noop_accel () =
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
    in
    scan 0
  in
  (match
     Trace.validate [| Isa.accel ~compute_latency:0 ~reads:[||] ~writes:[||] () |]
   with
  | Error msg ->
      Alcotest.(check bool) "names the no-op" true (contains msg "no-op accel")
  | Ok () -> Alcotest.fail "expected validation error");
  (* A latency-only invocation stays legal: the heap TCA has compute
     time but no modeled memory footprint. *)
  match
    Trace.validate [| Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] () |]
  with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_trace_counts_json () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:0 ());
  Trace.Builder.add b (Isa.load ~dst:1 ~addr:0 ());
  Trace.Builder.add b (Isa.store ~addr:64 ());
  Trace.Builder.add b (Isa.accel ~compute_latency:1 ~reads:[||] ~writes:[||] ());
  let c = Trace.counts (Trace.Builder.build b) in
  let expected =
    Tca_util.Json.(
      Obj
        [
          ("total", Int 4); ("int_alu", Int 1); ("int_mult", Int 0);
          ("fp_alu", Int 0); ("fp_mult", Int 0); ("loads", Int 1);
          ("stores", Int 1); ("branches", Int 0); ("accels", Int 1);
        ])
  in
  Alcotest.(check bool) "schema" true (Trace.counts_to_json c = expected)

let test_trace_io_simulates_identically () =
  let b = Trace.Builder.create () in
  for i = 0 to 999 do
    if i mod 9 = 8 then
      Trace.Builder.add b
        (Isa.accel ~compute_latency:4 ~reads:[| i * 64 mod 2048 |] ~writes:[||] ())
    else Trace.Builder.add b (Isa.int_alu ~src1:(i mod 3) ~dst:(i mod 12) ())
  done;
  let t = Trace.Builder.build b in
  let path = Filename.temp_file "tca" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      let t' = Trace.load path in
      let cfg = Config.hp ~coupling:Config.coupling_nl_t () in
      Alcotest.(check int) "same cycles"
        (Pipeline.run_exn cfg t).Sim_stats.cycles
        (Pipeline.run_exn cfg t').Sim_stats.cycles)

(* --- Bpred --- *)

let test_bpred_bimodal_learns () =
  let p = Bpred.create (Bpred.Bimodal 10) in
  for _ = 1 to 10 do
    Bpred.update p ~pc:0x40 ~taken:false
  done;
  Alcotest.(check bool) "learned not-taken" false (Bpred.predict p ~pc:0x40);
  for _ = 1 to 10 do
    Bpred.update p ~pc:0x80 ~taken:true
  done;
  Alcotest.(check bool) "learned taken" true (Bpred.predict p ~pc:0x80)

let test_bpred_gshare_learns_pattern () =
  (* Alternating T/NT at one PC: history disambiguates perfectly after
     warmup. *)
  let p = Bpred.create (Bpred.Gshare 12) in
  let correct = ref 0 in
  for i = 0 to 999 do
    let taken = i mod 2 = 0 in
    if Bpred.predict p ~pc:0x100 = taken then incr correct;
    Bpred.update p ~pc:0x100 ~taken
  done;
  Alcotest.(check bool) "gshare learns alternation" true (!correct > 900)

let test_bpred_bimodal_fails_pattern () =
  let p = Bpred.create (Bpred.Bimodal 12) in
  let correct = ref 0 in
  for i = 0 to 999 do
    let taken = i mod 2 = 0 in
    if Bpred.predict p ~pc:0x100 = taken then incr correct;
    Bpred.update p ~pc:0x100 ~taken
  done;
  Alcotest.(check bool) "bimodal cannot learn alternation" true (!correct < 700)

let test_bpred_tournament_best_of_both () =
  (* Site A alternates (gshare wins), site B is biased with random other
     history (bimodal wins); the tournament should do well on both. *)
  let p = Bpred.create (Bpred.Tournament 12) in
  let rng = Tca_util.Prng.create 3 in
  let correct = ref 0 and total = ref 0 in
  for i = 0 to 4999 do
    let pc_a = 0x100 and pc_b = 0x200 in
    let taken_a = i mod 2 = 0 in
    let taken_b = Tca_util.Prng.bernoulli rng 0.95 in
    if i > 1000 then begin
      if Bpred.predict p ~pc:pc_a = taken_a then incr correct;
      if Bpred.predict p ~pc:pc_b = taken_b then incr correct;
      total := !total + 2
    end;
    Bpred.update p ~pc:pc_a ~taken:taken_a;
    Bpred.update p ~pc:pc_b ~taken:taken_b
  done;
  let rate = float_of_int !correct /. float_of_int !total in
  Alcotest.(check bool) "tournament accuracy above 90%" true (rate > 0.90)

let test_bpred_perfect () =
  Alcotest.(check bool) "perfect" true (Bpred.is_perfect (Bpred.create Bpred.Perfect));
  Alcotest.(check bool) "others not" false
    (Bpred.is_perfect (Bpred.create (Bpred.Bimodal 8)))

let test_bpred_bits_validation () =
  Alcotest.check_raises "bits range"
    (Invalid_argument "Bpred.create: bits out of range") (fun () ->
      ignore (Bpred.create (Bpred.Gshare 0)))

(* --- Cache --- *)

let small_cache () =
  Cache.create (Cache.config ~size_bytes:1024 ~assoc:2 ~line_bytes:64 ())

let test_cache_config_validation () =
  Alcotest.check_raises "size divisibility"
    (Invalid_argument "Cache.config: size not divisible by line_bytes * assoc")
    (fun () -> ignore (Cache.config ~size_bytes:1000 ~assoc:2 ()));
  Alcotest.check_raises "line pow2"
    (Invalid_argument "Cache.config: line_bytes not a power of two") (fun () ->
      ignore (Cache.config ~line_bytes:48 ~size_bytes:960 ~assoc:2 ()))

let test_cache_hit_after_miss () =
  let c = small_cache () in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x103F);
  Alcotest.(check bool) "next line miss" false (Cache.access c 0x1040);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* 8 sets of 64 B lines: addresses 512 B apart share a set index and
     differ in tag. *)
  let set_stride = 8 * 64 in
  let a = 0 and b = set_stride and d = 2 * set_stride in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  (* Touch [a] so [b] is LRU; inserting [d] must evict [b]. [b] is
     checked last: its miss refills the set. *)
  ignore (Cache.access c a);
  ignore (Cache.access c d);
  Alcotest.(check bool) "a stays" true (Cache.access c a);
  Alcotest.(check bool) "d resident" true (Cache.access c d);
  Alcotest.(check bool) "b evicted" false (Cache.access c b)

(* --- Mem_hier --- *)

let hier () =
  Mem_hier.create
    (Mem_hier.config
       ~l1:(Cache.config ~size_bytes:1024 ~assoc:2 ~hit_latency:2 ())
       ~l2:(Cache.config ~size_bytes:8192 ~assoc:4 ~hit_latency:10 ())
       ~mem_latency:50 ())

let test_hier_latencies () =
  let h = hier () in
  Alcotest.(check int) "cold goes to memory" 62 (Mem_hier.load_latency h 0x4000);
  Alcotest.(check int) "L1 hit" 2 (Mem_hier.load_latency h 0x4000);
  (* Evict from L1 with conflicting lines; L2 still holds it. *)
  for k = 1 to 4 do
    ignore (Mem_hier.load_latency h (0x4000 + (k * 1024)))
  done;
  Alcotest.(check int) "L2 hit" 12 (Mem_hier.load_latency h 0x4000)

let test_hier_store_fills () =
  let h = hier () in
  Mem_hier.store h 0x8000;
  Alcotest.(check int) "load after store hits L1" 2
    (Mem_hier.load_latency h 0x8000)

(* --- Ports --- *)

let test_ports_bandwidth () =
  let p = Ports.create ~width:2 ~horizon:64 in
  Alcotest.(check int) "slot 1" 10 (Ports.reserve p ~now:10);
  Alcotest.(check int) "slot 2" 10 (Ports.reserve p ~now:10);
  Alcotest.(check int) "spills to next cycle" 11 (Ports.reserve p ~now:10);
  Alcotest.(check int) "independent cycle" 20 (Ports.reserve p ~now:20)

let test_ports_reuse_after_wrap () =
  let p = Ports.create ~width:1 ~horizon:8 in
  Alcotest.(check int) "cycle 0" 0 (Ports.reserve p ~now:0);
  (* Same ring cell, much later cycle: must be fresh. *)
  Alcotest.(check int) "cycle 8 reuses cell" 8 (Ports.reserve p ~now:8);
  Alcotest.(check int) "cycle 16" 16 (Ports.reserve p ~now:16)

let test_ports_validation () =
  Alcotest.check_raises "width" (Invalid_argument "Ports.create: width below 1")
    (fun () -> ignore (Ports.create ~width:0 ~horizon:8))

(* A later request for an earlier cycle lands on the ring cell of a live
   booking: the ring must grow, not re-tag the cell and hand the same
   cycle out twice. *)
let test_ports_no_double_booking () =
  let p = Ports.create ~width:1 ~horizon:8 in
  Alcotest.(check int) "cycle 10" 10 (Ports.reserve p ~now:10);
  Alcotest.(check int) "cycle 2, same cell" 2 (Ports.reserve p ~now:2);
  Alcotest.(check int) "cycle 10 is taken" 11 (Ports.reserve p ~now:10);
  (* far past the initial reach, and past the ring's growth limit *)
  Alcotest.(check int) "far ahead" 100_000 (Ports.reserve p ~now:100_000);
  Alcotest.(check int) "far ahead, taken" 100_001
    (Ports.reserve p ~now:100_000);
  Ports.advance p ~now:50_000;
  Alcotest.(check int) "ring reuse after advance" 50_000
    (Ports.reserve p ~now:50_000);
  Alcotest.(check int) "far booking kept" 100_002 (Ports.reserve p ~now:100_000)

(* Steps every cycle: a probe keeps [Pipeline.run] off the path that
   jumps quiet stretches. *)
let no_op_probe =
  {
    Pipeline.on_cycle =
      (fun ~cycle:_ ~dispatched:_ ~issued:_ ~executing:_ ~rob_occupancy:_ ->
        ());
  }

(* Parity of the two pipelines on [trace], the optimized one both
   jumping and stepping; returns the optimized stats. *)
let run_both ?(label = "reference parity") cfg trace =
  let json s = Tca_util.Json.to_string (Sim_stats.to_json s) in
  let opt = Pipeline.run_exn cfg trace in
  let reference = json (Pipeline_reference.run_exn cfg trace) in
  Alcotest.(check string) label reference (json opt);
  Alcotest.(check string) (label ^ " (stepping)") reference
    (json (Pipeline.run_exn ~probe:no_op_probe cfg trace));
  opt

let accel ?src1 ?dst ?(unit_id = 0) ?(reads = [||]) ?(writes = [||]) latency =
  Isa.accel ?src1 ?dst ~unit_id ~compute_latency:latency ~reads ~writes ()

let lines base n = Array.init n (fun i -> base + (64 * i))

(* Both pipelines share [Ports], so parity cannot catch a port bug: these
   pin the schedule. The third invocation's writes are due on the cycles
   the first one's already hold, more than 8192 cycles after the second
   invocation booked cycles in between; an overwriting ring lets them
   share the ports (9018 cycles). *)
let test_ports_pipeline_exact () =
  let trace =
    Trace.of_array
      (Array.mapi
         (fun k l -> accel ~writes:(lines (0x100000 * (k + 1)) 16) l)
         [| 9000; 808; 9000 |])
  in
  Alcotest.(check int) "cycles" 9026
    (run_both (Config.hp ()) trace).Sim_stats.cycles

(* 20,000 line reads on two ports book 10,000 cycles ahead, past the
   initial 8192-cycle ring: a complete run, not an exception. *)
let test_ports_long_invocation () =
  let trace = Trace.of_array [| accel ~reads:(lines 0 20_000) 4 |] in
  Alcotest.(check bool) "complete" true
    ((run_both (Config.hp ()) trace).Sim_stats.cycles > 10_000)

(* --- Config --- *)

let test_config_coupling_names () =
  Alcotest.(check string) "nl_nt" "NL_NT" (Config.coupling_name Config.coupling_nl_nt);
  Alcotest.(check string) "l_t" "L_T" (Config.coupling_name Config.coupling_l_t);
  Alcotest.(check int) "four couplings" 4 (List.length Config.all_couplings)

let test_config_validate () =
  let cfg = Config.hp () in
  Alcotest.(check bool) "hp valid" true (Config.validate cfg = Ok ());
  Alcotest.(check bool) "broken rejected" true
    (Config.validate { cfg with Config.rob_size = 1 } <> Ok ())

(* Settings that [Bpred.create] and [Mem_hier.config] would reject, or
   that the simulator would otherwise run with: both pipelines must
   return a [Domain] diagnostic naming the field, not raise or simulate. *)
let test_config_validate_bpred_mem () =
  let hp = Config.hp () in
  let mem = hp.Config.mem in
  let cache_latency (c : Cache.config) hit_latency =
    { c with Cache.hit_latency }
  in
  let t =
    let b = Trace.Builder.create () in
    Trace.Builder.add b (Isa.load ~dst:0 ~addr:0 ());
    Trace.Builder.build b
  in
  List.iter
    (fun (expected_field, cfg) ->
      let check name = function
        | Error (Tca_util.Diag.Domain { field; _ }) ->
            Alcotest.(check string) (name ^ ": field") expected_field field
        | Error d ->
            Alcotest.fail
              (name ^ ": expected Domain, got " ^ Tca_util.Diag.to_string d)
        | Ok _ -> Alcotest.fail (name ^ ": " ^ expected_field ^ " accepted")
      in
      check "optimized" (Pipeline.run cfg t);
      check "reference" (Pipeline_reference.run cfg t))
    [
      ("Config.bpred", { hp with Config.bpred = Bpred.Bimodal 30 });
      ("Config.bpred", { hp with Config.bpred = Bpred.Tournament 0 });
      ( "Config.mem.mem_latency",
        { hp with Config.mem = { mem with Mem_hier.mem_latency = 0 } } );
      ( "Config.mem.mem_latency",
        { hp with Config.mem = { mem with Mem_hier.mem_latency = -50 } } );
      ( "Config.mem.l1.hit_latency",
        {
          hp with
          Config.mem =
            { mem with Mem_hier.l1 = cache_latency mem.Mem_hier.l1 0 };
        } );
      ( "Config.mem.l2.hit_latency",
        {
          hp with
          Config.mem =
            { mem with Mem_hier.l2 = cache_latency mem.Mem_hier.l2 0 };
        } );
    ];
  Alcotest.(check bool) "table bits 1 and 24 accepted" true
    (Config.validate { hp with Config.bpred = Bpred.Gshare 1 } = Ok ()
    && Config.validate { hp with Config.bpred = Bpred.Gshare 24 } = Ok ())

let test_config_with_coupling () =
  let cfg = Config.with_coupling (Config.hp ()) Config.coupling_nl_nt in
  Alcotest.(check string) "updated" "NL_NT" (Config.coupling_name cfg.Config.coupling)

(* --- Pipeline --- *)

let run_trace ?(cfg = Config.hp ()) instrs =
  let b = Trace.Builder.create () in
  List.iter (Trace.Builder.add b) instrs;
  Pipeline.run_exn cfg (Trace.Builder.build b)

let repeat n f = List.init n f

let test_pipeline_single_instr () =
  let stats = run_trace [ Isa.int_alu ~dst:0 () ] in
  Alcotest.(check int) "committed" 1 stats.Sim_stats.committed;
  Alcotest.(check bool) "few cycles" true (stats.Sim_stats.cycles < 30)

let test_pipeline_independent_ipc () =
  let stats = run_trace (repeat 8000 (fun i -> Isa.int_alu ~dst:(i mod 32) ())) in
  Alcotest.(check bool) "IPC near dispatch width" true
    (stats.Sim_stats.ipc > 3.5)

let test_pipeline_chain_ipc () =
  let stats = run_trace (repeat 4000 (fun _ -> Isa.int_alu ~src1:0 ~dst:0 ())) in
  Alcotest.(check bool) "IPC near 1" true
    (stats.Sim_stats.ipc > 0.9 && stats.Sim_stats.ipc <= 1.05)

let test_pipeline_mult_chain_ipc () =
  let stats = run_trace (repeat 2000 (fun _ -> Isa.int_mult ~src1:0 ~dst:0 ())) in
  Alcotest.(check bool) "IPC near 1/3" true
    (stats.Sim_stats.ipc > 0.28 && stats.Sim_stats.ipc < 0.38)

let test_pipeline_commits_everything () =
  let stats =
    run_trace
      (repeat 500 (fun i ->
           if i mod 7 = 0 then Isa.load ~dst:(i mod 16) ~addr:(i * 8) ()
           else Isa.int_alu ~dst:(i mod 16) ()))
  in
  Alcotest.(check int) "all committed" 500 stats.Sim_stats.committed;
  Alcotest.(check bool) "ipc consistent" true
    (Float.abs
       (stats.Sim_stats.ipc
       -. (float_of_int stats.Sim_stats.committed
          /. float_of_int stats.Sim_stats.cycles))
    < 1e-9)

let test_pipeline_cache_counted () =
  let stats =
    run_trace (repeat 1000 (fun i -> Isa.load ~dst:(i mod 8) ~addr:(i * 8 mod 4096) ()))
  in
  let total = stats.Sim_stats.l1.Mem_hier.hits + stats.Sim_stats.l1.Mem_hier.misses in
  Alcotest.(check int) "every load accesses L1" 1000 total;
  Alcotest.(check bool) "mostly hits (64-line working set)" true
    (stats.Sim_stats.l1.Mem_hier.misses <= 64)

let test_pipeline_store_load_forwarding () =
  (* A reload of a just-stored (still in-flight) address is forwarded in
     one cycle; loading a different cold line instead goes to memory.
     Both traces touch only cold lines, so the cycle gap is pure
     forwarding. *)
  let mk reload_same =
    repeat 300 (fun i ->
        let addr = 0x100000 + (i * 64) in
        [
          Isa.store ~addr ();
          Isa.load ~dst:1 ~addr:(if reload_same then addr else addr + 8192) ();
        ])
    |> List.concat
  in
  let fwd = run_trace (mk true) in
  let cold = run_trace (mk false) in
  Alcotest.(check bool) "forwarding is much faster than memory" true
    (fwd.Sim_stats.cycles * 2 < cold.Sim_stats.cycles)

let test_pipeline_mispredict_penalty () =
  let mk_trace pattern_random =
    let rng = Tca_util.Prng.create 5 in
    let b = Trace.Builder.create () in
    for i = 0 to 3999 do
      if i mod 8 = 7 then
        let taken =
          if pattern_random then Tca_util.Prng.bool rng
          else true
        in
        Trace.Builder.add_at_site b (Isa.branch ~pc:0x500 ~taken ())
      else Trace.Builder.add b (Isa.int_alu ~dst:(i mod 24) ())
    done;
    Trace.Builder.build b
  in
  let cfg = Config.hp () in
  let predictable = Pipeline.run_exn cfg (mk_trace false) in
  let random = Pipeline.run_exn cfg (mk_trace true) in
  Alcotest.(check bool) "random branches cost cycles" true
    (random.Sim_stats.cycles > predictable.Sim_stats.cycles);
  Alcotest.(check bool) "mispredict counts differ" true
    (random.Sim_stats.mispredicts > predictable.Sim_stats.mispredicts);
  let perfect =
    Pipeline.run_exn { cfg with Config.bpred = Bpred.Perfect } (mk_trace true)
  in
  Alcotest.(check int) "perfect never mispredicts" 0
    perfect.Sim_stats.mispredicts;
  Alcotest.(check bool) "perfect faster" true
    (perfect.Sim_stats.cycles < random.Sim_stats.cycles)

let accel_trace ~latency ~n ~gap =
  let b = Trace.Builder.create () in
  for i = 0 to n - 1 do
    for j = 0 to gap - 1 do
      ignore j;
      Trace.Builder.add b (Isa.int_alu ~dst:(i mod 16) ())
    done;
    Trace.Builder.add b
      (Isa.accel ~compute_latency:latency ~reads:[||] ~writes:[||] ())
  done;
  Trace.Builder.build b

let test_pipeline_serialize_barrier () =
  let t = accel_trace ~latency:20 ~n:50 ~gap:40 in
  let nt = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_nt ()) t in
  let tt = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_t ()) t in
  Alcotest.(check bool) "NT stalls dispatch" true
    (nt.Sim_stats.stalls.Sim_stats.serialize > 0);
  Alcotest.(check int) "T never serializes" 0
    tt.Sim_stats.stalls.Sim_stats.serialize;
  Alcotest.(check bool) "barrier costs cycles" true
    (nt.Sim_stats.cycles > tt.Sim_stats.cycles)

let test_pipeline_nl_head_wait () =
  let t = accel_trace ~latency:20 ~n:50 ~gap:40 in
  let nl = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_nl_t ()) t in
  let l = Pipeline.run_exn (Config.hp ~coupling:Config.coupling_l_t ()) t in
  Alcotest.(check bool) "NL waits for head" true
    (nl.Sim_stats.accel_wait_for_head_cycles > 0);
  Alcotest.(check int) "L never waits" 0 l.Sim_stats.accel_wait_for_head_cycles;
  Alcotest.(check bool) "waiting costs cycles" true
    (nl.Sim_stats.cycles >= l.Sim_stats.cycles)

let test_pipeline_mode_cycle_ordering () =
  let t = accel_trace ~latency:30 ~n:40 ~gap:50 in
  let cycles c = (Pipeline.run_exn (Config.hp ~coupling:c ()) t).Sim_stats.cycles in
  let nl_nt = cycles Config.coupling_nl_nt
  and l_nt = cycles Config.coupling_l_nt
  and nl_t = cycles Config.coupling_nl_t
  and l_t = cycles Config.coupling_l_t in
  Alcotest.(check bool) "L_T fastest" true (l_t <= l_nt && l_t <= nl_t);
  Alcotest.(check bool) "NL_NT slowest" true (nl_nt >= l_nt && nl_nt >= nl_t)

let test_pipeline_accel_memory () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b
    (Isa.accel ~compute_latency:4 ~reads:[| 0; 64; 128 |] ~writes:[| 256 |] ());
  let stats = Pipeline.run_exn (Config.hp ()) (Trace.Builder.build b) in
  Alcotest.(check int) "committed" 1 stats.Sim_stats.committed;
  Alcotest.(check int) "invocations" 1 stats.Sim_stats.accel_invocations;
  Alcotest.(check bool) "busy at least compute + memory" true
    (stats.Sim_stats.accel_busy_cycles > 4);
  let touched = stats.Sim_stats.l1.Mem_hier.hits + stats.Sim_stats.l1.Mem_hier.misses in
  Alcotest.(check bool) "reads and writes reach the cache" true (touched >= 4)

let test_pipeline_determinism () =
  let t = accel_trace ~latency:10 ~n:20 ~gap:30 in
  let a = Pipeline.run_exn (Config.hp ()) t in
  let b = Pipeline.run_exn (Config.hp ()) t in
  Alcotest.(check int) "same cycles" a.Sim_stats.cycles b.Sim_stats.cycles;
  Alcotest.(check int) "same commits" a.Sim_stats.committed b.Sim_stats.committed

let test_pipeline_probe () =
  let t = accel_trace ~latency:10 ~n:5 ~gap:20 in
  let dispatched = ref 0 and issued = ref 0 in
  let probe =
    {
      Pipeline.on_cycle =
        (fun ~cycle:_ ~dispatched:d ~issued:i ~executing:_ ~rob_occupancy:_ ->
          dispatched := !dispatched + d;
          issued := !issued + i);
    }
  in
  let stats = Pipeline.run_exn ~probe (Config.hp ()) t in
  Alcotest.(check int) "probe sees every dispatch" (Trace.length t) !dispatched;
  Alcotest.(check int) "probe sees every issue" stats.Sim_stats.committed !issued

let test_pipeline_watchdog_partial () =
  let cfg = { (Config.hp ()) with Config.max_cycles = Some 3 } in
  let t =
    let b = Trace.Builder.create () in
    for _ = 1 to 100 do
      Trace.Builder.add b (Isa.int_mult ~src1:0 ~dst:0 ())
    done;
    Trace.Builder.build b
  in
  (match Pipeline.run cfg t with
  | Ok (Pipeline.Partial { stats; diag }) -> (
      match diag with
      | Tca_util.Diag.Watchdog { cycles; committed; total } ->
          Alcotest.(check bool) "cycles past cap" true (cycles > 3);
          Alcotest.(check int) "committed matches snapshot" stats.Sim_stats.committed
            committed;
          Alcotest.(check int) "total is trace length" (Trace.length t) total;
          Alcotest.(check bool) "truncated" true (committed < total)
      | d -> Alcotest.fail ("expected Watchdog, got " ^ Tca_util.Diag.to_string d))
  | Ok (Pipeline.Complete _) -> Alcotest.fail "expected Partial under tiny budget"
  | Error d -> Alcotest.fail ("unexpected error: " ^ Tca_util.Diag.to_string d));
  (* the _exn wrapper surfaces the same diagnostic as an exception *)
  Alcotest.(check bool) "run_exn raises Diag.Error" true
    (try
       ignore (Pipeline.run_exn cfg t);
       false
     with Tca_util.Diag.Error (Tca_util.Diag.Watchdog _) -> true)

let test_pipeline_invalid_config () =
  let cfg = { (Config.hp ()) with Config.dispatch_width = 0 } in
  let t =
    let b = Trace.Builder.create () in
    Trace.Builder.add b (Isa.int_alu ~dst:0 ());
    Trace.Builder.build b
  in
  (match Pipeline.run cfg t with
  | Error (Tca_util.Diag.Domain { field; _ }) ->
      Alcotest.(check bool) "names the field" true
        (String.length field > 0)
  | Error d -> Alcotest.fail ("expected Domain, got " ^ Tca_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "invalid config accepted");
  Alcotest.(check bool) "invalid config rejected" true
    (try
       ignore (Pipeline.run_exn cfg t);
       false
     with Tca_util.Diag.Error _ -> true)

let test_pipeline_lp_slower () =
  let t = accel_trace ~latency:10 ~n:20 ~gap:50 in
  let hp = Pipeline.run_exn (Config.hp ()) t in
  let lp = Pipeline.run_exn (Config.lp ()) t in
  Alcotest.(check bool) "narrow core slower" true
    (lp.Sim_stats.cycles > hp.Sim_stats.cycles)

(* Every preset sizes its IQ like its ROB, so only a cut-down queue fills
   behind a deep window: parity on the golden pairs (baseline and every
   coupling) with small IQ/LSQ sizes. The summed full-queue stalls keep
   the test from passing without ever filling either queue. *)
let test_pipeline_small_iq_parity () =
  let pairs = Tca_experiments.Exp_common.golden_pairs () in
  let iq_full = ref 0 and lsq_full = ref 0 in
  List.iter
    (fun (iq_size, lsq_size) ->
      let cfg = { (Config.hp ()) with Config.iq_size; lsq_size } in
      List.iter
        (fun (name, (pair : Tca_workloads.Meta.pair)) ->
          List.iter
            (fun (mode, cfg, trace) ->
              let label =
                Printf.sprintf "%s/%s iq %d lsq %d" name mode iq_size lsq_size
              in
              let stalls = (run_both ~label cfg trace).Sim_stats.stalls in
              iq_full := !iq_full + stalls.Sim_stats.iq_full;
              lsq_full := !lsq_full + stalls.Sim_stats.lsq_full)
            (("baseline", cfg, pair.Tca_workloads.Meta.baseline)
            :: List.map
                 (fun c ->
                   ( Config.coupling_name c,
                     Config.with_coupling cfg c,
                     pair.Tca_workloads.Meta.accelerated ))
                 Config.all_couplings))
        pairs)
    [ (16, 8); (32, 12); (5, 3) ];
  Alcotest.(check bool) "IQ filled" true (!iq_full > 0);
  Alcotest.(check bool) "LSQ filled" true (!lsq_full > 0)

(* Long quiet stretches, with and without a watchdog cap inside them:
   a 5000-cycle invocation under NL_NT (the instructions behind it stall
   on the barrier), dispatch behind 3000 cycles of Sync CSR writes, and
   a second invocation waiting 3000 cycles for a Queued unit's one
   descriptor slot. The jumping path, the stepping path and the
   reference agree on the outcome, the stats and the diagnostic; with
   the cap, the watchdog fires at cycle 1001. *)
let test_pipeline_quiet_stretch () =
  let alus = List.init 3 (fun i -> Isa.int_alu ~dst:(i + 2) ()) in
  let unit_cfg mode depth =
    Config.with_tca_units (Config.hp ())
      [|
        Tca_unit.make ~config_mode:mode ~config_latency:3000
          ~config_queue_depth:depth 0;
      |]
  in
  let cases =
    [
      ( "latency 5000 NL_NT",
        Config.hp ~coupling:Config.coupling_nl_nt (),
        accel 5000 :: alus );
      ("sync config 3000", unit_cfg Tca_unit.Sync 1, accel 20 :: alus);
      ( "queued depth 1, config 3000",
        unit_cfg Tca_unit.Queued 1,
        accel 20 :: accel 20 :: alus );
    ]
  in
  let show = function
    | Ok (Pipeline.Complete stats) ->
        "complete " ^ Tca_util.Json.to_string (Sim_stats.to_json stats)
    | Ok (Pipeline.Partial { stats; diag }) ->
        Printf.sprintf "partial %s %s"
          (Tca_util.Json.to_string (Sim_stats.to_json stats))
          (Tca_util.Diag.to_string diag)
    | Error d -> "error " ^ Tca_util.Diag.to_string d
  in
  List.iter
    (fun (name, cfg, instrs) ->
      let trace = Trace.of_array (Array.of_list instrs) in
      List.iter
        (fun max_cycles ->
          let cfg = { cfg with Config.max_cycles } in
          let label what =
            Printf.sprintf "%s, cap %s: %s" name
              (match max_cycles with Some c -> string_of_int c | None -> "none")
              what
          in
          let jumping = Pipeline.run cfg trace in
          let reference = show (Pipeline_reference.run cfg trace) in
          Alcotest.(check string) (label "jumping = reference") reference
            (show jumping);
          Alcotest.(check string) (label "stepping = reference") reference
            (show (Pipeline.run ~probe:no_op_probe cfg trace));
          match (max_cycles, jumping) with
          | None, Ok (Pipeline.Complete stats) ->
              Alcotest.(check bool) (label "longer than the cap") true
                (stats.Sim_stats.cycles > 3000)
          | ( Some _,
              Ok
                (Pipeline.Partial
                  { diag = Tca_util.Diag.Watchdog { cycles; _ }; _ }) ) ->
              Alcotest.(check int) (label "watchdog cycle") 1001 cycles
          | _ -> Alcotest.fail (label ("unexpected outcome " ^ show jumping)))
        [ Some 1000; None ])
    cases

(* Random well-formed traces always terminate and commit everything,
   under every coupling. *)
let random_trace_gen =
  let open QCheck.Gen in
  let instr =
    frequency
      [
        (5, map (fun d -> Isa.int_alu ~src1:(d mod 7) ~dst:(d mod 16) ()) (int_bound 1000));
        (2, map (fun d -> Isa.int_mult ~src1:(d mod 5) ~dst:(d mod 16) ()) (int_bound 1000));
        (2, map (fun d -> Isa.fp_alu ~src1:(d mod 5) ~dst:(16 + (d mod 8)) ()) (int_bound 1000));
        ( 3,
          map
            (fun d -> Isa.load ~base:(d mod 4) ~dst:(d mod 16) ~addr:(d * 8 mod 8192) ())
            (int_bound 1000) );
        (2, map (fun d -> Isa.store ~src:(d mod 16) ~addr:(d * 8 mod 8192) ()) (int_bound 1000));
        (1, map (fun d -> Isa.branch ~pc:(0x700 + (d mod 16 * 4)) ~taken:(d mod 3 = 0) ()) (int_bound 1000));
        ( 1,
          map
            (fun d ->
              Isa.accel
                ~compute_latency:(1 + (d mod 30))
                ~reads:(if d mod 2 = 0 then [| d * 64 mod 4096 |] else [||])
                ~writes:[||] ~dst:(d mod 16) ())
            (int_bound 1000) );
      ]
  in
  QCheck.make
    ~print:(fun (instrs, _) -> Printf.sprintf "<%d instrs>" (List.length instrs))
    (pair (list_size (int_range 1 300) instr) (int_bound 3))

let prop_random_traces_terminate =
  qtest ~count:60 "random traces commit fully under every coupling"
    random_trace_gen (fun (instrs, coupling_idx) ->
      let coupling = List.nth Config.all_couplings coupling_idx in
      let b = Trace.Builder.create () in
      List.iter
        (fun (i : Isa.instr) ->
          match i.Isa.op with
          | Isa.Branch -> Trace.Builder.add_at_site b i
          | _ -> Trace.Builder.add b i)
        instrs;
      let t = Trace.Builder.build b in
      let stats = Pipeline.run_exn (Config.hp ~coupling ()) t in
      stats.Sim_stats.committed = Trace.length t
      && stats.Sim_stats.cycles > 0)

(* Metamorphic properties: directional changes with known-sign effects. *)

let mixed_accel_trace seed latency =
  let rng = Tca_util.Prng.create seed in
  let b = Trace.Builder.create () in
  for i = 0 to 1499 do
    if i mod 40 = 39 then
      Trace.Builder.add b
        (Isa.accel ~compute_latency:latency
           ~reads:(if i mod 80 = 79 then [| i * 64 mod 4096 |] else [||])
           ~writes:[||] ())
    else if i mod 7 = 3 then
      Trace.Builder.add b
        (Isa.load ~dst:(i mod 12) ~addr:(8 * Tca_util.Prng.int rng 2048) ())
    else Trace.Builder.add b (Isa.int_alu ~src1:(i mod 5) ~dst:(i mod 12) ())
  done;
  Trace.Builder.build b

let prop_latency_monotone =
  qtest ~count:20 "cycles monotone in TCA latency (3% slack)"
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, coupling_idx) ->
      let coupling = List.nth Config.all_couplings coupling_idx in
      let cfg = Config.hp ~coupling () in
      let fast = Pipeline.run_exn cfg (mixed_accel_trace seed 5) in
      let slow = Pipeline.run_exn cfg (mixed_accel_trace seed 50) in
      (* Fully-overlapped couplings can absorb the extra latency and even
         shift cache/port interleavings slightly in either direction;
         allow second-order slack (seed 88 under L_T reaches 2.33%). *)
      float_of_int slow.Sim_stats.cycles
      >= 0.97 *. float_of_int fast.Sim_stats.cycles)

let prop_coupling_monotone =
  qtest ~count:20 "removing a coupling barrier never adds cycles"
    QCheck.small_int
    (fun seed ->
      let t = mixed_accel_trace seed 20 in
      let cycles c = (Pipeline.run_exn (Config.hp ~coupling:c ()) t).Sim_stats.cycles in
      let nl_nt = float_of_int (cycles Config.coupling_nl_nt)
      and l_nt = float_of_int (cycles Config.coupling_l_nt)
      and nl_t = float_of_int (cycles Config.coupling_nl_t)
      and l_t = float_of_int (cycles Config.coupling_l_t) in
      (* 1% slack for cycle-level interleaving noise. *)
      l_t <= 1.01 *. l_nt && l_t <= 1.01 *. nl_t
      && l_nt <= 1.01 *. nl_nt && nl_t <= 1.01 *. nl_nt)

let prop_mem_latency_monotone =
  qtest ~count:10 "cycles monotone in memory latency"
    QCheck.small_int
    (fun seed ->
      let t = mixed_accel_trace seed 10 in
      let run lat =
        let mem =
          Mem_hier.config
            ~l1:(Cache.config ~size_bytes:1024 ~assoc:2 ~hit_latency:2 ())
            ~l2:(Cache.config ~size_bytes:2048 ~assoc:2 ~hit_latency:6 ())
            ~mem_latency:lat ()
        in
        (Pipeline.run_exn { (Config.hp ()) with Config.mem } t).Sim_stats.cycles
      in
      run 200 >= run 50)

(* --- Simulator --- *)

let test_simulator_compare_modes () =
  let baseline = accel_trace ~latency:1 ~n:0 ~gap:1 in
  let b = Trace.Builder.create () in
  for i = 0 to 999 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 8) ())
  done;
  let baseline = ignore baseline; Trace.Builder.build b in
  let accelerated = accel_trace ~latency:20 ~n:10 ~gap:80 in
  let cmp =
    Simulator.compare_modes_exn ~cfg:(Config.hp ()) ~baseline ~accelerated ()
  in
  Alcotest.(check int) "four modes" 4 (List.length cmp.Simulator.modes);
  List.iter
    (fun (r : Simulator.mode_result) ->
      Alcotest.(check bool) "positive speedup" true (r.Simulator.speedup > 0.0))
    cmp.Simulator.modes;
  Alcotest.(check (list string)) "Config.all_couplings order"
    (List.map Config.coupling_name Config.all_couplings)
    (List.map
       (fun (r : Simulator.mode_result) ->
         Config.coupling_name r.Simulator.coupling)
       cmp.Simulator.modes)

let test_simulator_measure_ipc () =
  let b = Trace.Builder.create () in
  for i = 0 to 1999 do
    Trace.Builder.add b (Isa.int_alu ~dst:(i mod 32) ())
  done;
  let stats = Pipeline.run_exn (Config.hp ()) (Trace.Builder.build b) in
  let ipc = stats.Sim_stats.ipc in
  Alcotest.(check bool) "near width" true (ipc > 3.0 && ipc <= 4.0)

(* [run_batch] is a pure fan-out: entry-for-entry identical to a
   sequential [Pipeline.run] loop, serial or parallel, and a bad entry
   reports its [Error] in place without poisoning the rest. *)
let outcome_key = function
  | Ok o ->
      "ok:"
      ^ Tca_util.Json.to_string
          (Sim_stats.to_json (Pipeline.stats_of_outcome o))
      ^ (match o with
        | Pipeline.Partial { diag; _ } -> "|" ^ Tca_util.Diag.to_string diag
        | Pipeline.Complete _ -> "")
  | Error d -> "error:" ^ Tca_util.Diag.to_string d

let test_simulator_run_batch () =
  let cfg = Config.hp () in
  let t1 = mixed_accel_trace 3 10 and t2 = mixed_accel_trace 7 25 in
  let bad = { cfg with Config.dispatch_width = 0 } in
  let entries =
    [|
      (cfg, t1);
      (Config.with_coupling cfg Config.coupling_l_t, t2);
      (bad, t1);
      (Config.lp (), t2);
    |]
  in
  let seq = Array.map (fun (c, t) -> outcome_key (Pipeline.run c t)) entries in
  let batch = Array.map outcome_key (Simulator.run_batch entries) in
  Alcotest.(check (array string)) "batch = sequential loop" seq batch;
  let par_batch =
    Tca_engine.Pool.with_pool ~workers:3 (fun pool ->
        Array.map outcome_key
          (Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries))
  in
  Alcotest.(check (array string)) "parallel batch = sequential loop" seq
    par_batch;
  Alcotest.(check bool) "bad entry reported in place" true
    (String.length batch.(2) >= 6 && String.sub batch.(2) 0 6 = "error:")

(* Regression: one watchdog-truncated entry (tiny cycle budget) mixed
   into a healthy batch must surface as [Ok (Partial _)] in place —
   stats snapshot kept, [Watchdog] diag attached — while every other
   entry completes untouched, serial and parallel alike. *)
let test_simulator_run_batch_partial_mix () =
  let cfg = Config.hp () in
  let long =
    let b = Trace.Builder.create () in
    for _ = 1 to 200 do
      Trace.Builder.add b (Isa.int_mult ~src1:0 ~dst:0 ())
    done;
    Trace.Builder.build b
  in
  let strangled = { cfg with Config.max_cycles = Some 2 } in
  let entries =
    [|
      (cfg, mixed_accel_trace 3 10);
      (strangled, long);
      (Config.lp (), mixed_accel_trace 7 25);
    |]
  in
  let check_results results =
    (match results.(1) with
    | Ok
        (Pipeline.Partial
           { stats; diag = Tca_util.Diag.Watchdog { committed; _ } }) ->
        Alcotest.(check int) "snapshot committed" stats.Sim_stats.committed
          committed;
        Alcotest.(check bool) "truncated" true (committed < Trace.length long)
    | Ok (Pipeline.Partial { diag; _ }) ->
        Alcotest.fail ("expected Watchdog, got " ^ Tca_util.Diag.to_string diag)
    | Ok (Pipeline.Complete _) -> Alcotest.fail "expected Partial in place"
    | Error d -> Alcotest.fail ("unexpected error: " ^ Tca_util.Diag.to_string d));
    Array.iteri
      (fun i r ->
        if i <> 1 then
          match r with
          | Ok (Pipeline.Complete _) -> ()
          | Ok (Pipeline.Partial _) ->
              Alcotest.fail "healthy entry truncated"
          | Error d ->
              Alcotest.fail
                ("healthy entry failed: " ^ Tca_util.Diag.to_string d))
      results
  in
  let serial = Simulator.run_batch entries in
  check_results serial;
  let parallel =
    Tca_engine.Pool.with_pool ~workers:2 (fun pool ->
        Simulator.run_batch ~par:(Tca_engine.Pool.parmap pool) entries)
  in
  check_results parallel;
  Alcotest.(check (array string)) "serial = parallel"
    (Array.map outcome_key serial)
    (Array.map outcome_key parallel)

(* --- Multi-unit TCA --- *)

let multi_scenario ?(n_pairs = 20) kind =
  Tca_workloads.Multi_tca.generate
    (Tca_workloads.Multi_tca.config ~n_pairs kind)

(* The two pipelines must agree instruction-for-instruction on
   heterogeneous-unit traces exactly as they do on the golden single-unit
   pairs: compare the full [Sim_stats.to_json] bytes (which include the
   per-unit breakdown) across the baseline and all four couplings of
   every bundled multi-unit scenario. *)
let test_multi_unit_pipelines_agree () =
  List.iter
    (fun kind ->
      let sc = multi_scenario kind in
      let name = Tca_workloads.Multi_tca.kind_name kind in
      let cfg =
        Config.with_tca_units (Config.hp ())
          sc.Tca_workloads.Multi_tca.tca_units
      in
      let pair = sc.Tca_workloads.Multi_tca.pair in
      let agree label = run_both ~label:(name ^ "/" ^ label) in
      ignore (agree "baseline" cfg pair.Tca_workloads.Meta.baseline);
      List.iter
        (fun c ->
          let stats =
            agree
              (Config.coupling_name c)
              (Config.with_coupling cfg c)
              pair.Tca_workloads.Meta.accelerated
          in
          Alcotest.(check int)
            (name ^ ": two per-unit rows")
            2
            (List.length stats.Sim_stats.per_unit);
          List.iteri
            (fun i (u : Sim_stats.unit_stats) ->
              Alcotest.(check int) (name ^ ": unit id") i u.Sim_stats.unit_id;
              Alcotest.(check int)
                (name ^ ": per-unit invocations")
                20 u.Sim_stats.invocations)
            stats.Sim_stats.per_unit)
        Config.all_couplings)
    Tca_workloads.Multi_tca.all_kinds

let test_multi_trace_io_roundtrip () =
  let build unit_id =
    let b = Trace.Builder.create () in
    Trace.Builder.add b (Isa.int_alu ~src1:1 ~src2:2 ~dst:3 ());
    Trace.Builder.add b
      (Isa.accel ~src1:7 ~dst:8 ~compute_latency:9 ~unit_id
         ~reads:[| 64; 128 |] ~writes:[| 256 |] ());
    Trace.Builder.add b
      (Isa.accel ~src1:8 ~dst:9 ~compute_latency:4 ~unit_id:1 ~reads:[||]
         ~writes:[| 512 |] ());
    Trace.Builder.build b
  in
  let save_to_string t =
    let path = Filename.temp_file "tca" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.save path t;
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let t' = Trace.load path in
        Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
        for i = 0 to Trace.length t - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "instr %d" i)
            true
            (Trace.get t i = Trace.get t' i)
        done;
        s)
  in
  let zero = save_to_string (build 0) in
  let one = save_to_string (build 1) in
  (* Unit 0 keeps the pre-[Tca_unit] line shape (no trailing unit
     field); a non-zero id appends exactly one field. *)
  Alcotest.(check bool) "unit id changes the accel line" true (zero <> one);
  let accel_fields s =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | _ :: "accel" :: rest -> Some (2 + List.length rest)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match (accel_fields zero, accel_fields one) with
  | [ z0; z1 ], [ o0; o1 ] ->
      Alcotest.(check int) "trailing unit id is one field" (z0 + 1) o0;
      Alcotest.(check int) "unit 1 lines identical" z1 o1
  | _ -> Alcotest.fail "expected two accel lines per trace"

let test_multi_config_validate () =
  let cfg = Config.hp () in
  Alcotest.(check bool) "default table valid" true
    (Config.validate cfg = Ok ());
  let bad_pos =
    Config.with_tca_units cfg [| Tca_unit.default 0; Tca_unit.default 0 |]
  in
  Alcotest.(check bool) "id must equal position" true
    (match Config.validate bad_pos with Error _ -> true | Ok () -> false);
  let empty = Config.with_tca_units cfg [||] in
  Alcotest.(check bool) "empty unit table rejected" true
    (match Config.validate empty with Error _ -> true | Ok () -> false)

(* A trace invoking a unit the config does not define must be rejected
   up front, with the same diagnostic from both pipelines. *)
let test_multi_trace_unit_bound () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (Isa.int_alu ~dst:1 ());
  Trace.Builder.add b
    (Isa.accel ~dst:2 ~compute_latency:4 ~unit_id:1 ~reads:[||] ~writes:[||]
       ());
  let t = Trace.Builder.build b in
  let cfg = Config.hp () in
  let diag name = function
    | Error (Tca_util.Diag.Invalid _ as d) -> Tca_util.Diag.to_string d
    | Error d -> Alcotest.fail (name ^ ": wrong diag " ^ Tca_util.Diag.to_string d)
    | Ok _ -> Alcotest.fail (name ^ ": expected rejection")
  in
  let opt = diag "optimized" (Pipeline.run cfg t) in
  let ref_ = diag "reference" (Pipeline_reference.run cfg t) in
  Alcotest.(check string) "same diagnostic" opt ref_

(* [stats] as a JSON reader sees it: serialized, then parsed. *)
let stats_json stats =
  Tca_util.Json.parse_exn (Tca_util.Json.to_string (Sim_stats.to_json stats))

let json_int obj name =
  Option.bind (Tca_util.Json.member name obj) Tca_util.Json.to_int_opt

let test_multi_sim_stats_roundtrips () =
  let sc = multi_scenario Tca_workloads.Multi_tca.Alternating in
  let cfg =
    Config.with_tca_units (Config.hp ()) sc.Tca_workloads.Multi_tca.tca_units
  in
  let pair = sc.Tca_workloads.Multi_tca.pair in
  let multi = Pipeline.run_exn cfg pair.Tca_workloads.Meta.accelerated in
  Alcotest.(check bool) "fixture has per-unit rows" true
    (multi.Sim_stats.per_unit <> []);
  let single =
    Pipeline.run_exn (Config.hp ()) pair.Tca_workloads.Meta.baseline
  in
  Alcotest.(check bool) "single-unit stats omit per_unit" true
    (Tca_util.Json.member "per_unit" (stats_json single) = None);
  (* The goldens are single-unit: only this test reads the rows. *)
  let rows =
    Option.bind
      (Tca_util.Json.member "per_unit" (stats_json multi))
      Tca_util.Json.to_list_opt
    |> Option.value ~default:[]
  in
  Alcotest.(check int) "one per_unit row per unit"
    (List.length multi.Sim_stats.per_unit)
    (List.length rows);
  List.iter2
    (fun row (u : Sim_stats.unit_stats) ->
      let check name v =
        Alcotest.(check (option int)) ("per_unit." ^ name) (Some v)
          (json_int row name)
      in
      check "unit_id" u.Sim_stats.unit_id;
      check "invocations" u.Sim_stats.invocations;
      check "busy_cycles" u.Sim_stats.busy_cycles;
      check "wait_for_head_cycles" u.Sim_stats.wait_for_head_cycles;
      check "serialize_stall_cycles" u.Sim_stats.serialize_stall_cycles)
    rows multi.Sim_stats.per_unit

(* --- Configuration mechanisms (T1)-(T3) --- *)

let config_cfg ?(coupling = Config.coupling_l_t) ?(depth = 2) mode latency =
  Config.with_tca_units (Config.hp ~coupling ())
    [|
      Tca_unit.make ~config_mode:mode ~config_latency:latency
        ~config_queue_depth:depth 0;
    |]

let test_config_unit_validate () =
  Alcotest.check_raises "negative config latency"
    (Invalid_argument "Tca_unit.make: negative config latency") (fun () ->
      ignore (Tca_unit.make ~config_latency:(-1) 0));
  Alcotest.check_raises "config queue depth < 1"
    (Invalid_argument "Tca_unit.make: config queue depth < 1") (fun () ->
      ignore (Tca_unit.make ~config_queue_depth:0 0));
  let reject label u =
    Alcotest.(check bool) label true
      (match Tca_unit.validate u with Error _ -> true | Ok _ -> false)
  in
  reject "validate: negative config latency"
    { (Tca_unit.default 0) with Tca_unit.config_latency = -3 };
  reject "validate: config queue depth < 1"
    { (Tca_unit.default 0) with Tca_unit.config_queue_depth = 0 };
  Alcotest.(check bool) "queued unit valid" true
    (Result.is_ok
       (Tca_unit.validate
          (Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:50
             ~config_queue_depth:2 0)));
  Alcotest.(check bool) "config in pp only when latency > 0" true
    (let show u = Format.asprintf "%a" Tca_unit.pp u in
     let inert = show (Tca_unit.default 0) in
     let active =
       show (Tca_unit.make ~config_mode:Tca_unit.Queued ~config_latency:50 0)
     in
     (not (String.length inert >= String.length active))
     && inert <> active)

(* Both pipelines must agree byte-for-byte with every configuration
   mechanism active, and the config counters must land where the
   mechanism says: [Sync] stalls every invocation, [Queued] stalls only
   on a full descriptor queue, [Preprogrammed] pays once. The dense pair
   (two accel units per chunk) keeps the queued engine saturated so the
   queue-full path is actually exercised. *)
let test_config_pipelines_agree () =
  let sparse =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:600 ~n_chunks:60
         ~accel_latency:20 ())
  in
  let dense =
    Tca_workloads.Synthetic.generate
      (Tca_workloads.Synthetic.config ~n_units:400 ~n_chunks:200
         ~accel_latency:20 ())
  in
  let run_all label cfg (pair : Tca_workloads.Meta.pair) =
    List.map
      (fun c ->
        let cfg = Config.with_coupling cfg c in
        run_both
          ~label:(label ^ "/" ^ Config.coupling_name c)
          cfg pair.Tca_workloads.Meta.accelerated)
      Config.all_couplings
  in
  let total f stats = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let sync_stall s = s.Sim_stats.config_stall_cycles in
  let queue_stall s = s.Sim_stats.config_queue_stall_cycles in
  (* Baseline traces carry no accel instructions: config counters stay 0
     and the run is identical to an unconfigured one. *)
  let base =
    Pipeline.run_exn
      (config_cfg Tca_unit.Sync 30)
      sparse.Tca_workloads.Meta.baseline
  in
  Alcotest.(check int) "baseline: no config stalls" 0
    (sync_stall base + queue_stall base);
  let sync = run_all "sync" (config_cfg Tca_unit.Sync 30) sparse in
  Alcotest.(check bool) "sync: stalls every invocation" true
    (List.for_all (fun s -> sync_stall s > 0 && queue_stall s = 0) sync);
  let preprog = run_all "preprog" (config_cfg Tca_unit.Preprogrammed 30) sparse in
  List.iter2
    (fun s p ->
      Alcotest.(check bool) "preprog: pays once, less than sync" true
        (sync_stall p > 0 && sync_stall p < sync_stall s && queue_stall p = 0))
    sync preprog;
  let queued_sparse = run_all "queued" (config_cfg Tca_unit.Queued 5) sparse in
  Alcotest.(check int) "queued: deep sparse stream never fills the queue" 0
    (total queue_stall queued_sparse + total sync_stall queued_sparse);
  let queued_dense = run_all "queued-dense" (config_cfg Tca_unit.Queued 50) dense in
  Alcotest.(check bool) "queued: dense stream hits the queue bound" true
    (total queue_stall queued_dense > 0
    && total sync_stall queued_dense = 0);
  (* The two counters sit outside the golden six-reason stall breakdown
     and the goldens are configuration-free: only this test reads the
     [config] object. *)
  Alcotest.(check bool) "config-free stats omit config" true
    (Tca_util.Json.member "config" (stats_json base) = None);
  List.iter
    (fun (label, stats) ->
      let field name =
        Option.bind
          (Tca_util.Json.member "config" (stats_json stats))
          (fun c -> json_int c name)
      in
      Alcotest.(check (option int))
        (label ^ ": config.stall_cycles")
        (Some stats.Sim_stats.config_stall_cycles)
        (field "stall_cycles");
      Alcotest.(check (option int))
        (label ^ ": config.queue_stall_cycles")
        (Some stats.Sim_stats.config_queue_stall_cycles)
        (field "queue_stall_cycles"))
    [
      ("sync stats", List.hd sync);
      ("queued stats", List.nth queued_dense 3);
    ]

(* --- Accelerator policy: Tca_unit.State and exact-cycle closed forms ---

   Both pipelines share [Tca_unit.State], so parity cannot check it. The
   state machine is pinned here directly, and through both pipelines by
   micro-scenarios whose cycle counts follow by hand from its rules. *)

let state_of ?(exclusive = false) mode latency depth =
  Tca_unit.State.create ~exclusive
    [|
      Tca_unit.make ~config_mode:mode ~config_latency:latency
        ~config_queue_depth:depth 0;
    |]

let gate_t =
  Alcotest.testable
    (fun fmt g ->
      Format.pp_print_string fmt
        (match g with
        | Tca_unit.State.Go -> "Go"
        | Tca_unit.State.Config_write -> "Config_write"
        | Tca_unit.State.Config_queue -> "Config_queue"))
    ( = )

let test_state_gate_modes () =
  let open Tca_unit.State in
  let expect label want st instr cycle =
    Alcotest.check gate_t label want (gate st 0 ~instr ~cycle)
  in
  expect "latency 0 is inert" Go (state_of Tca_unit.Sync 0 4) 0 0;
  (* Sync: every invocation pays c = 5 cycles of CSR writes. *)
  let st = state_of Tca_unit.Sync 5 4 in
  List.iter
    (fun (instr, first) ->
      expect "sync: writes start" Config_write st instr first;
      expect "sync: in flight" Config_write st instr (first + 4);
      expect "sync: done" Go st instr (first + 5);
      Alcotest.(check int) "sync: no descriptor" 0
        (dispatch st 0 ~cycle:(first + 5)))
    [ (0, 0); (1, 100) ];
  (* Preprogrammed: the first invocation pays, the rest are free. *)
  let st = state_of Tca_unit.Preprogrammed 5 4 in
  expect "preprog: first pays" Config_write st 0 0;
  expect "preprog: first done" Go st 0 5;
  ignore (dispatch st 0 ~cycle:5 : int);
  expect "preprog: pays once" Go st 1 6;
  (* Queued, c = 5, depth 3: descriptors complete 5 cycles apart, and the
     queue is full at exactly 3 outstanding. *)
  let st = state_of Tca_unit.Queued 5 3 in
  List.iteri
    (fun k ready ->
      expect "queued: room" Go st k 0;
      Alcotest.(check int) "queued: descriptor ready" ready
        (dispatch st 0 ~cycle:0))
    [ 5; 10; 15 ];
  expect "queued: full at depth" Config_queue st 3 0;
  expect "queued: still full" Config_queue st 3 4;
  expect "queued: one completed" Go st 3 5;
  Alcotest.(check int) "queued: serial engine" 20 (dispatch st 0 ~cycle:5);
  (* [gate_open_at] after a refusal: Sync c = 100 refused at cycle 7,
     Queued c = 100 depth 4 refused once four descriptors are queued. *)
  let opens label refusal st refused_at =
    let at = gate_open_at st 0 in
    Alcotest.(check bool) (label ^ ": opens later") true (at > refused_at);
    expect (label ^ ": blocks the cycle before") refusal st 9 (at - 1);
    expect (label ^ ": open") Go st 9 at
  in
  let st = state_of Tca_unit.Sync 100 4 in
  expect "sync 100: writes start" Config_write st 9 7;
  opens "sync 100" Config_write st 7;
  let st = state_of Tca_unit.Queued 100 4 in
  for _ = 1 to 4 do
    ignore (dispatch st 0 ~cycle:0 : int)
  done;
  expect "queued 100: full" Config_queue st 9 0;
  opens "queued 100" Config_queue st 0;
  (* A bulk add of k equals k single calls. *)
  let counters st =
    List.map
      (fun u ->
        (u.Sim_stats.wait_for_head_cycles, u.Sim_stats.serialize_stall_cycles))
      (unit_stats st)
  in
  List.iter
    (fun mode ->
      let single = state_of mode 100 4 and bulk = state_of mode 100 4 in
      List.iter
        (fun st -> ignore (dispatch st 0 ~cycle:0 : int))
        [ single; bulk ];
      for _ = 1 to 13 do
        wait_for_head single 0;
        serialize_stall single
      done;
      add_head_waits bulk 0 13;
      add_serialize_stalls bulk 13;
      Alcotest.(check (list (pair int int)))
        ("bulk = single: " ^ Tca_unit.config_mode_name mode)
        (counters single) (counters bulk))
    [ Tca_unit.Sync; Tca_unit.Queued ]

let test_state_occupancy_and_counters () =
  let open Tca_unit.State in
  let pipelined = state_of Tca_unit.Sync 0 4 in
  finish pipelined 0 ~issued:0 ~complete:50;
  Alcotest.(check int) "pipelined: no wait" 10
    (start pipelined 0 ~cycle:10 ~ready:0);
  Alcotest.(check int) "config ready gates start" 30
    (start pipelined 0 ~cycle:10 ~ready:30);
  let st = state_of ~exclusive:true Tca_unit.Sync 0 4 in
  ignore (dispatch st 0 ~cycle:0 : int);
  finish st 0 ~issued:0 ~complete:50;
  Alcotest.(check int) "exclusive: waits for the unit" 50
    (start st 0 ~cycle:10 ~ready:0);
  Alcotest.(check int) "exclusive: later ready wins" 60
    (start st 0 ~cycle:10 ~ready:60);
  wait_for_head st 0;
  serialize_stall st;
  serialize_stall st;
  let two = create ~exclusive:false (Array.init 2 Tca_unit.default) in
  ignore (dispatch two 1 ~cycle:0 : int);
  serialize_stall two;
  Alcotest.(check (list int)) "serialize stall charged to the barrier's unit"
    [ 0; 1 ]
    (List.map (fun u -> u.Sim_stats.serialize_stall_cycles) (unit_stats two));
  match unit_stats st with
  | [ u ] ->
      Alcotest.(check (list int)) "counters"
        [ 0; 1; 50; 1; 2 ]
        [
          u.Sim_stats.unit_id;
          u.Sim_stats.invocations;
          u.Sim_stats.busy_cycles;
          u.Sim_stats.wait_for_head_cycles;
          u.Sim_stats.serialize_stall_cycles;
        ]
  | _ -> Alcotest.fail "expected one unit"

let accel_only ?(chain = false) ?(units = 1) ~latency n =
  Trace.of_array
    (Array.init n (fun i ->
         if chain then accel ~src1:1 ~dst:1 latency
         else accel ~unit_id:(i mod units) latency))

(* NL_NT and L_NT serialize a chain of n accel-only invocations, so each
   invocation's configuration cost lands on the critical path alone:
   Sync adds c per invocation, Preprogrammed c once, and Queued c - 1
   per invocation (the descriptor is enqueued at dispatch, the
   invocation would otherwise issue one cycle later) with an empty
   engine at every dispatch, so the queue never fills — the documented
   dense-NT worst case of (T2), made exact. *)
let test_exact_config_chain () =
  List.iter
    (fun coupling ->
      List.iter
        (fun n ->
          let trace = accel_only ~chain:true ~latency:20 n in
          let run mode c depth =
            run_both (config_cfg ~coupling ~depth mode c) trace
          in
          let base = (run Tca_unit.Sync 0 1).Sim_stats.cycles in
          List.iter
            (fun c ->
              let label what =
                Printf.sprintf "%s n=%d c=%d %s"
                  (Config.coupling_name coupling) n c what
              in
              let sync = run Tca_unit.Sync c 1 in
              Alcotest.(check int) (label "sync cycles") (base + (n * c))
                sync.Sim_stats.cycles;
              Alcotest.(check int) (label "sync stall") (n * c)
                sync.Sim_stats.config_stall_cycles;
              Alcotest.(check int) (label "preprog cycles") (base + c)
                (run Tca_unit.Preprogrammed c 1).Sim_stats.cycles;
              List.iter
                (fun depth ->
                  let q = run Tca_unit.Queued c depth in
                  Alcotest.(check int)
                    (label (Printf.sprintf "queued d=%d cycles" depth))
                    (base + (n * (c - 1)))
                    q.Sim_stats.cycles;
                  Alcotest.(check int)
                    (label (Printf.sprintf "queued d=%d full" depth))
                    0 q.Sim_stats.config_queue_stall_cycles)
                [ 1; 4 ])
            [ 1; 5; 30; 100 ])
        [ 8; 10; 12 ])
    [ Config.coupling_nl_nt; Config.coupling_l_nt ]

(* L_T with core-wide Exclusive occupancy: n independent invocations of
   latency L serialize on their unit, so one unit takes n * L cycles plus
   the fixed cost of a single invocation (its cycles minus L, 10 on HP),
   and two alternating units overlap pairwise: (n / 2) * L plus the same
   constant. *)
let test_exact_exclusive_units () =
  let cfg units =
    Config.with_tca_units
      { (Config.hp ()) with Config.tca_occupancy = Config.Exclusive }
      (Array.init units Tca_unit.default)
  in
  List.iter
    (fun latency ->
      let single =
        (run_both (cfg 1) (accel_only ~latency 1)).Sim_stats.cycles - latency
      in
      Alcotest.(check int) "single-invocation overhead" 10 single;
      List.iter
        (fun n ->
          let label what = Printf.sprintf "L=%d n=%d %s" latency n what in
          Alcotest.(check int) (label "one unit")
            ((n * latency) + single)
            (run_both (cfg 1) (accel_only ~latency n)).Sim_stats.cycles;
          Alcotest.(check int) (label "two units")
            ((n / 2 * latency) + single)
            (run_both (cfg 2) (accel_only ~units:2 ~latency n))
              .Sim_stats.cycles)
        [ 8; 10; 12 ])
    [ 20; 50; 100 ]

(* --- Golden pins --- *)

(* test/golden/<name>.golden pins [Sim_stats.to_json] for the baseline
   and all four couplings of each bundled workload family, produced by
   the pre-optimization pipeline. The optimized path (through
   [Simulator.compare_modes], i.e. [run_batch]), the same pipeline
   stepping every cycle under a probe and the verbatim reference
   implementation must all reproduce those bytes exactly.
   Regenerate with [dune exec test/gen_golden.exe] only on deliberate
   semantic changes. *)
let read_golden name =
  (* The dune [deps] glob copies the pins next to the test binary in
     _build, so resolve against the executable rather than the cwd
     (which differs between [dune runtest] and [dune exec]). *)
  let path =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "golden")
      (name ^ ".golden")
  in
  let ic = open_in path in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents buf

let golden_line label stats =
  Printf.sprintf "%s\t%s\n" label
    (Tca_util.Json.to_string (Sim_stats.to_json stats))

let golden_optimized (pair : Tca_workloads.Meta.pair) =
  let cmp =
    Simulator.compare_modes_exn ~cfg:(Config.hp ())
      ~baseline:pair.Tca_workloads.Meta.baseline
      ~accelerated:pair.Tca_workloads.Meta.accelerated ()
  in
  String.concat ""
    (golden_line "baseline" cmp.Simulator.baseline
    :: List.map
         (fun (r : Simulator.mode_result) ->
           golden_line (Config.coupling_name r.Simulator.coupling)
             r.Simulator.stats)
         cmp.Simulator.modes)

(* The pin lines of [pair] simulated one run at a time by [run]. *)
let golden_of run (pair : Tca_workloads.Meta.pair) =
  let cfg = Config.hp () in
  String.concat ""
    (golden_line "baseline" (run cfg pair.Tca_workloads.Meta.baseline)
    :: List.map
         (fun c ->
           golden_line (Config.coupling_name c)
             (run (Config.with_coupling cfg c)
                pair.Tca_workloads.Meta.accelerated))
         Config.all_couplings)

(* pairs.golden pins the generators themselves: for each golden pair
   and each [Multi_tca] kind at its default config, the MD5 of both
   traces' interchange text and the [Meta.pp] line. *)
let golden_pair_line (name, (pair : Tca_workloads.Meta.pair)) =
  let md5 trace =
    let path = Filename.temp_file "tca-pairs" ".trace" in
    Out_channel.with_open_bin path (fun oc -> Trace.to_channel oc trace);
    let digest = Digest.to_hex (Digest.file path) in
    Sys.remove path;
    digest
  in
  Format.asprintf "%s\t%s\t%s\t%a\n" name
    (md5 pair.Tca_workloads.Meta.baseline)
    (md5 pair.Tca_workloads.Meta.accelerated)
    Tca_workloads.Meta.pp pair.Tca_workloads.Meta.meta

let test_golden_pins () =
  let golden = Tca_experiments.Exp_common.golden_pairs () in
  List.iter
    (fun (name, pair) ->
      let pinned = read_golden name in
      Alcotest.(check string)
        (name ^ ": optimized pipeline matches golden")
        pinned (golden_optimized pair);
      Alcotest.(check string)
        (name ^ ": reference pipeline matches golden")
        pinned
        (golden_of Pipeline_reference.run_exn pair);
      Alcotest.(check string)
        (name ^ ": stepping pipeline matches golden")
        pinned
        (golden_of (Pipeline.run_exn ~probe:no_op_probe) pair))
    golden;
  let multi =
    List.map
      (fun k ->
        let open Tca_workloads.Multi_tca in
        (kind_name k, (generate (config k)).pair))
      Tca_workloads.Multi_tca.all_kinds
  in
  Alcotest.(check string) "pairs: generators match golden"
    (read_golden "pairs")
    (String.concat "" (List.map golden_pair_line (golden @ multi)))

let () =
  Alcotest.run "tca_uarch"
    [
      ( "isa",
        [
          Alcotest.test_case "constructors" `Quick test_isa_constructors;
          Alcotest.test_case "register validation" `Quick test_isa_register_validation;
          Alcotest.test_case "address validation" `Quick test_isa_addr_validation;
          Alcotest.test_case "accel" `Quick test_isa_accel;
          Alcotest.test_case "op names" `Quick test_isa_op_names;
        ] );
      ( "trace",
        [
          Alcotest.test_case "builder pcs" `Quick test_trace_builder_pcs;
          Alcotest.test_case "add_at_site" `Quick test_trace_add_at_site;
          Alcotest.test_case "builder growth" `Quick test_trace_builder_growth;
          Alcotest.test_case "validate bad reg" `Quick test_trace_validate_bad_reg;
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "io roundtrip" `Quick test_trace_io_roundtrip;
          Alcotest.test_case "io rejects garbage" `Quick test_trace_io_rejects_garbage;
          Alcotest.test_case "io error messages" `Quick test_trace_io_error_messages;
          Alcotest.test_case "validate no-op accel" `Quick test_trace_validate_noop_accel;
          Alcotest.test_case "counts json" `Quick test_trace_counts_json;
          Alcotest.test_case "io simulates identically" `Quick test_trace_io_simulates_identically;
          Alcotest.test_case "packed columns" `Quick test_trace_packed_columns;
        ] );
      ( "bpred",
        [
          Alcotest.test_case "bimodal learns bias" `Quick test_bpred_bimodal_learns;
          Alcotest.test_case "gshare learns pattern" `Quick test_bpred_gshare_learns_pattern;
          Alcotest.test_case "bimodal misses pattern" `Quick test_bpred_bimodal_fails_pattern;
          Alcotest.test_case "tournament" `Quick test_bpred_tournament_best_of_both;
          Alcotest.test_case "perfect" `Quick test_bpred_perfect;
          Alcotest.test_case "bits validation" `Quick test_bpred_bits_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_cache_config_validation;
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        ] );
      ( "mem_hier",
        [
          Alcotest.test_case "latencies" `Quick test_hier_latencies;
          Alcotest.test_case "store fills" `Quick test_hier_store_fills;
        ] );
      ( "ports",
        [
          Alcotest.test_case "bandwidth" `Quick test_ports_bandwidth;
          Alcotest.test_case "ring reuse" `Quick test_ports_reuse_after_wrap;
          Alcotest.test_case "validation" `Quick test_ports_validation;
          Alcotest.test_case "no double booking" `Quick
            test_ports_no_double_booking;
          Alcotest.test_case "pipeline schedule exact" `Quick
            test_ports_pipeline_exact;
          Alcotest.test_case "long invocation" `Quick
            test_ports_long_invocation;
        ] );
      ( "config",
        [
          Alcotest.test_case "coupling names" `Quick test_config_coupling_names;
          Alcotest.test_case "validate" `Quick test_config_validate;
          Alcotest.test_case "validate bpred and memory" `Quick
            test_config_validate_bpred_mem;
          Alcotest.test_case "with_coupling" `Quick test_config_with_coupling;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "single instruction" `Quick test_pipeline_single_instr;
          Alcotest.test_case "independent IPC" `Quick test_pipeline_independent_ipc;
          Alcotest.test_case "chain IPC" `Quick test_pipeline_chain_ipc;
          Alcotest.test_case "mult chain IPC" `Quick test_pipeline_mult_chain_ipc;
          Alcotest.test_case "commits everything" `Quick test_pipeline_commits_everything;
          Alcotest.test_case "cache counted" `Quick test_pipeline_cache_counted;
          Alcotest.test_case "store-load forwarding" `Quick test_pipeline_store_load_forwarding;
          Alcotest.test_case "mispredict penalty" `Quick test_pipeline_mispredict_penalty;
          Alcotest.test_case "serialize barrier" `Quick test_pipeline_serialize_barrier;
          Alcotest.test_case "NL head wait" `Quick test_pipeline_nl_head_wait;
          Alcotest.test_case "mode cycle ordering" `Quick test_pipeline_mode_cycle_ordering;
          Alcotest.test_case "accel memory" `Quick test_pipeline_accel_memory;
          Alcotest.test_case "determinism" `Quick test_pipeline_determinism;
          Alcotest.test_case "probe" `Quick test_pipeline_probe;
          Alcotest.test_case "watchdog partial" `Quick test_pipeline_watchdog_partial;
          Alcotest.test_case "invalid config" `Quick test_pipeline_invalid_config;
          Alcotest.test_case "LP slower than HP" `Quick test_pipeline_lp_slower;
          Alcotest.test_case "small IQ/LSQ parity" `Quick
            test_pipeline_small_iq_parity;
          Alcotest.test_case "quiet stretch exact" `Quick
            test_pipeline_quiet_stretch;
          prop_random_traces_terminate;
          prop_latency_monotone;
          prop_coupling_monotone;
          prop_mem_latency_monotone;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "compare modes" `Quick test_simulator_compare_modes;
          Alcotest.test_case "measure ipc" `Quick test_simulator_measure_ipc;
          Alcotest.test_case "run_batch" `Quick test_simulator_run_batch;
          Alcotest.test_case "run_batch partial mix" `Quick
            test_simulator_run_batch_partial_mix;
        ] );
      ( "multi_unit",
        [
          Alcotest.test_case "pipelines agree" `Slow
            test_multi_unit_pipelines_agree;
          Alcotest.test_case "trace io roundtrip" `Quick
            test_multi_trace_io_roundtrip;
          Alcotest.test_case "config validation" `Quick
            test_multi_config_validate;
          Alcotest.test_case "trace unit bound" `Quick
            test_multi_trace_unit_bound;
          Alcotest.test_case "sim stats roundtrips" `Quick
            test_multi_sim_stats_roundtrips;
        ] );
      ( "config_cost",
        [
          Alcotest.test_case "unit validation" `Quick test_config_unit_validate;
          Alcotest.test_case "pipelines agree + counters" `Slow
            test_config_pipelines_agree;
        ] );
      ( "unit_policy",
        [
          Alcotest.test_case "state gate per mode" `Quick test_state_gate_modes;
          Alcotest.test_case "state occupancy + counters" `Quick
            test_state_occupancy_and_counters;
          Alcotest.test_case "exact: config chain (NT)" `Quick
            test_exact_config_chain;
          Alcotest.test_case "exact: exclusive units (L_T)" `Quick
            test_exact_exclusive_units;
        ] );
      ( "golden",
        [ Alcotest.test_case "workload pins" `Quick test_golden_pins ] );
    ]
