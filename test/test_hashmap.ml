open Tca_hashmap

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Table --- *)

let test_create_validation () =
  Alcotest.check_raises "capacity range"
    (Invalid_argument "Table.create: capacity_pow2 out of [4, 24]") (fun () ->
      ignore (Table.create ~capacity_pow2:2 ()))

let test_insert_find () =
  let t = Table.create ~capacity_pow2:8 () in
  let r = Table.insert t 42 420 in
  Alcotest.(check bool) "fresh insert" false r.Table.found;
  Alcotest.(check int) "length" 1 (Table.length t);
  let f = Table.find t 42 in
  Alcotest.(check bool) "found" true f.Table.found;
  Alcotest.(check (option int)) "value" (Some 420) f.Table.value;
  let m = Table.find t 43 in
  Alcotest.(check bool) "absent" false m.Table.found

let test_update () =
  let t = Table.create ~capacity_pow2:8 () in
  ignore (Table.insert t 7 1);
  let r = Table.insert t 7 2 in
  Alcotest.(check bool) "update reports existing" true r.Table.found;
  Alcotest.(check int) "no growth" 1 (Table.length t);
  Alcotest.(check (option int)) "new value" (Some 2) (Table.find t 7).Table.value

let test_remove_tombstones () =
  let t = Table.create ~capacity_pow2:8 () in
  (* Force a collision chain, then delete the middle element: later keys
     must remain findable through the tombstone. *)
  ignore (Table.insert t 10 1);
  ignore (Table.insert t 20 2);
  ignore (Table.insert t 30 3);
  let victim = 20 in
  let r = Table.remove t victim in
  Alcotest.(check bool) "removed" true r.Table.found;
  Alcotest.(check int) "length drops" 2 (Table.length t);
  Alcotest.(check bool) "gone" false (Table.find t victim).Table.found;
  Alcotest.(check bool) "others intact" true
    ((Table.find t 10).Table.found && (Table.find t 30).Table.found);
  Alcotest.(check bool) "remove absent" false (Table.remove t 999).Table.found

let test_probe_addresses () =
  let t = Table.create ~base:0x1000 ~capacity_pow2:4 () in
  let r = Table.find t 5 in
  Alcotest.(check int) "one probe on empty table" 1 r.Table.probes;
  Alcotest.(check int) "one address" 1 (List.length r.Table.bucket_addrs);
  List.iter
    (fun a ->
      Alcotest.(check bool) "aligned to bucket" true
        (a >= 0x1000 && (a - 0x1000) mod 16 = 0))
    r.Table.bucket_addrs

let test_full_table_rejected () =
  let t = Table.create ~capacity_pow2:4 () in
  Alcotest.(check bool) "fills then fails" true
    (try
       for k = 0 to 15 do
         ignore (Table.insert t k k)
       done;
       false
     with Failure _ -> true)

let test_negative_key () =
  let t = Table.create ~capacity_pow2:4 () in
  Alcotest.check_raises "negative" (Invalid_argument "Table: negative key")
    (fun () -> ignore (Table.find t (-1)))

let test_mean_probes_grows_with_load () =
  let probes_at load =
    let t = Table.create ~capacity_pow2:10 () in
    let n = int_of_float (load *. 1024.0) in
    for k = 0 to n - 1 do
      ignore (Table.insert t ((k * 7919) + 3) k)
    done;
    let rng = Tca_util.Prng.create 5 in
    let total = ref 0 in
    for _ = 1 to 500 do
      let k = ((Tca_util.Prng.int rng n * 7919) + 3) in
      total := !total + (Table.find t k).Table.probes
    done;
    float_of_int !total /. 500.0
  in
  Alcotest.(check bool) "collisions grow with load factor" true
    (probes_at 0.8 > probes_at 0.2)

(* Reference-model property: the table behaves like Hashtbl under random
   insert/find/remove sequences. *)
let prop_matches_reference =
  qtest "matches a reference map under random ops"
    QCheck.small_int
    (fun seed ->
      let t = Table.create ~capacity_pow2:8 () in
      let reference = Hashtbl.create 64 in
      let rng = Tca_util.Prng.create seed in
      let ok = ref true in
      for _ = 1 to 150 do
        let key = Tca_util.Prng.int rng 64 in
        match Tca_util.Prng.int rng 3 with
        | 0 when Table.length t < 200 ->
            let v = Tca_util.Prng.int rng 1000 in
            ignore (Table.insert t key v);
            Hashtbl.replace reference key v
        | 1 ->
            let r = Table.find t key in
            let expected = Hashtbl.find_opt reference key in
            if r.Table.found <> Option.is_some expected then ok := false;
            if r.Table.found && r.Table.value <> expected then ok := false
        | _ ->
            ignore (Table.remove t key);
            Hashtbl.remove reference key
      done;
      !ok
      && Table.length t = Hashtbl.length reference
      && Table.check_invariants t = Ok ())

(* --- Cost_model --- *)

let test_software_uops () =
  Alcotest.(check int) "1 probe" (6 + 4 + 3) (Cost_model.software_uops ~probes:1);
  Alcotest.(check int) "4 probes" (6 + 16 + 3) (Cost_model.software_uops ~probes:4)

let test_emit_find_counts () =
  let b = Tca_uarch.Trace.Builder.create () in
  Cost_model.emit_find b ~bucket_addrs:[ 0x2000_0000; 0x2000_0010; 0x2000_0040 ];
  Alcotest.(check int) "matches software_uops"
    (Cost_model.software_uops ~probes:3)
    (Tca_uarch.Trace.Builder.length b);
  Alcotest.check_raises "empty probes"
    (Invalid_argument "Cost_model.emit_find: no buckets") (fun () ->
      Cost_model.emit_find b ~bucket_addrs:[])

let test_emit_find_accel_lines () =
  let b = Tca_uarch.Trace.Builder.create () in
  (* Two buckets in the same 64 B line, one in another: two line reads. *)
  Cost_model.emit_find_accel b
    ~bucket_addrs:[ 0x2000_0000; 0x2000_0010; 0x2000_0080 ];
  let t = Tca_uarch.Trace.Builder.build b in
  Alcotest.(check int) "single instruction" 1 (Tca_uarch.Trace.length t);
  match (Tca_uarch.Trace.get t 0).Tca_uarch.Isa.op with
  | Tca_uarch.Isa.Accel a ->
      Alcotest.(check int) "deduplicated lines" 2
        (Array.length a.Tca_uarch.Isa.reads);
      Alcotest.(check int) "compute latency" Cost_model.accel_compute_latency
        a.Tca_uarch.Isa.compute_latency
  | _ -> Alcotest.fail "expected accel"

(* --- Workload --- *)

let test_workload_structure () =
  let cfg =
    Tca_workloads.Hashmap_workload.config ~n_lookups:200
      ~app_instrs_per_lookup:50 ()
  in
  let pair, mean_probes = Tca_workloads.Hashmap_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "invocations" 200 pair.Meta.meta.Meta.invocations;
  Alcotest.(check int) "no accel in baseline" 0
    (Tca_uarch.Trace.counts pair.Meta.baseline).Tca_uarch.Trace.accels;
  Alcotest.(check bool) "probes at moderate load" true
    (mean_probes >= 1.0 && mean_probes < 4.0);
  Alcotest.(check bool) "TCA reads real lines" true
    (pair.Meta.meta.Meta.avg_reads_per_invocation >= 1.0);
  Alcotest.(check bool) "fresh lines estimated" true
    (pair.Meta.meta.Meta.avg_fresh_lines_per_invocation > 0.0)

let test_workload_validation () =
  Alcotest.check_raises "load factor"
    (Invalid_argument "Hashmap_workload.config: load_factor out of (0, 0.85]")
    (fun () ->
      ignore
        (Tca_workloads.Hashmap_workload.config ~load_factor:0.95 ~n_lookups:10
           ~app_instrs_per_lookup:10 ()))

let test_workload_determinism () =
  let cfg =
    Tca_workloads.Hashmap_workload.config ~n_lookups:100
      ~app_instrs_per_lookup:30 ~seed:3 ()
  in
  let p1, m1 = Tca_workloads.Hashmap_workload.generate cfg in
  let p2, m2 = Tca_workloads.Hashmap_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "same baseline"
    (Tca_uarch.Trace.length p1.Meta.baseline)
    (Tca_uarch.Trace.length p2.Meta.baseline);
  Alcotest.(check (float 1e-12)) "same probes" m1 m2

let test_experiment_quick () =
  let rows, mean_probes = Tca_experiments.Hashmap_val.run ~quick:true () in
  Alcotest.(check int) "one gap x 4 modes" 4 (List.length rows);
  Alcotest.(check bool) "probes sane" true (mean_probes >= 1.0);
  (* L_T must be the simulator's best mode here too. *)
  let sim m =
    (List.find
       (fun (r : Tca_experiments.Exp_common.validation_row) ->
         Tca_model.Mode.equal r.Tca_experiments.Exp_common.mode m)
       rows)
      .Tca_experiments.Exp_common.sim_speedup
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "L_T best" true (sim Tca_model.Mode.L_T >= sim m))
    Tca_model.Mode.all

let () =
  Alcotest.run "tca_hashmap"
    [
      ( "table",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "remove/tombstones" `Quick test_remove_tombstones;
          Alcotest.test_case "probe addresses" `Quick test_probe_addresses;
          Alcotest.test_case "full table" `Quick test_full_table_rejected;
          Alcotest.test_case "negative key" `Quick test_negative_key;
          Alcotest.test_case "probes grow with load" `Quick test_mean_probes_grows_with_load;
          prop_matches_reference;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "software uops" `Quick test_software_uops;
          Alcotest.test_case "emit counts" `Quick test_emit_find_counts;
          Alcotest.test_case "accel lines" `Quick test_emit_find_accel_lines;
        ] );
      ( "workload",
        [
          Alcotest.test_case "structure" `Quick test_workload_structure;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "experiment quick" `Slow test_experiment_quick;
        ] );
    ]
