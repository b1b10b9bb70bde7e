open Tca_strfn

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Arena --- *)

let arena_with strings =
  let a = Arena.create ~capacity:4096 () in
  let addrs = List.map (Arena.add_string a) strings in
  (a, addrs)

let test_add_string () =
  let a, addrs = arena_with [ "hello"; "world!" ] in
  (match addrs with
  | [ x; y ] ->
      Alcotest.(check int) "NUL-separated layout" (x + 6) y;
      Alcotest.(check bool) "addresses valid" true
        (Arena.address_ok a x && Arena.address_ok a y)
  | _ -> Alcotest.fail "expected two addresses");
  Alcotest.(check bool) "outside invalid" false (Arena.address_ok a 0)

let test_add_string_rejects_nul () =
  let a = Arena.create ~capacity:64 () in
  Alcotest.check_raises "embedded NUL"
    (Invalid_argument "Arena.add_string: embedded NUL") (fun () ->
      ignore (Arena.add_string a "a\000b"))

let test_arena_full () =
  let a = Arena.create ~capacity:4 () in
  Alcotest.(check bool) "full" true
    (try
       ignore (Arena.add_string a "toolong");
       false
     with Failure _ -> true)

let test_strlen () =
  let a, addrs = arena_with [ "hello" ] in
  let s = Arena.strlen a (List.hd addrs) in
  Alcotest.(check int) "length" 5 s.Arena.result;
  Alcotest.(check int) "inspects length + NUL" 6 s.Arena.bytes_inspected;
  Alcotest.(check int) "addresses recorded" 6 (List.length s.Arena.addrs)

let test_strcmp () =
  let a, addrs = arena_with [ "abc"; "abd"; "abc"; "ab" ] in
  let at i = List.nth addrs i in
  Alcotest.(check int) "less" (-1) (Arena.strcmp a (at 0) (at 1)).Arena.result;
  Alcotest.(check int) "greater" 1 (Arena.strcmp a (at 1) (at 0)).Arena.result;
  Alcotest.(check int) "equal" 0 (Arena.strcmp a (at 0) (at 2)).Arena.result;
  Alcotest.(check int) "prefix" 1 (Arena.strcmp a (at 0) (at 3)).Arena.result;
  (* Equal strings inspect both fully including NULs. *)
  Alcotest.(check int) "equal inspects both" 8
    (Arena.strcmp a (at 0) (at 2)).Arena.bytes_inspected

let test_find_char () =
  let a, addrs = arena_with [ "hello" ] in
  let addr = List.hd addrs in
  Alcotest.(check int) "found" 4 (Arena.find_char a addr 'o').Arena.result;
  Alcotest.(check int) "inspects to match" 2
    (Arena.find_char a addr 'e').Arena.bytes_inspected;
  let miss = Arena.find_char a addr 'z' in
  Alcotest.(check int) "missing" (-1) miss.Arena.result;
  Alcotest.(check int) "scans whole string" 6 miss.Arena.bytes_inspected;
  Alcotest.check_raises "NUL needle"
    (Invalid_argument "Arena.find_char: NUL needle") (fun () ->
      ignore (Arena.find_char a addr '\000'))

let string_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 40))

let prop_strlen_matches_stdlib =
  qtest "strlen = String.length"
    (QCheck.make ~print:(fun s -> s) string_gen)
    (fun s ->
      let a = Arena.create ~capacity:128 () in
      let addr = Arena.add_string a s in
      (Arena.strlen a addr).Arena.result = String.length s)

let prop_strcmp_matches_stdlib =
  qtest "strcmp sign = String.compare sign"
    (QCheck.make
       ~print:(fun (x, y) -> Printf.sprintf "%S vs %S" x y)
       QCheck.Gen.(pair string_gen string_gen))
    (fun (x, y) ->
      let a = Arena.create ~capacity:256 () in
      let ax = Arena.add_string a x and ay = Arena.add_string a y in
      (Arena.strcmp a ax ay).Arena.result = compare (String.compare x y) 0)

let prop_find_char_matches_stdlib =
  qtest "find_char = String.index_opt"
    (QCheck.make
       ~print:(fun (s, c) -> Printf.sprintf "%S %c" s c)
       QCheck.Gen.(pair string_gen (char_range 'a' 'z')))
    (fun (s, c) ->
      let a = Arena.create ~capacity:128 () in
      let addr = Arena.add_string a s in
      (Arena.find_char a addr c).Arena.result
      = Option.value ~default:(-1) (String.index_opt s c))

(* --- Cost model --- *)

let test_cost_model () =
  Alcotest.(check int) "uops" (5 + 40) (Cost_model.software_uops ~bytes_inspected:10);
  Alcotest.(check int) "latency 16B" 1
    (Cost_model.accel_compute_latency ~bytes_inspected:16);
  Alcotest.(check int) "latency 33B" 3
    (Cost_model.accel_compute_latency ~bytes_inspected:33);
  let b = Tca_uarch.Trace.Builder.create () in
  Cost_model.emit_call b ~addrs:(List.init 7 (fun i -> 0x4000_0000 + i));
  Alcotest.(check int) "emit matches software_uops"
    (Cost_model.software_uops ~bytes_inspected:7)
    (Tca_uarch.Trace.Builder.length b);
  Alcotest.(check int) "lines deduplicated" 1
    (List.length (Cost_model.lines_of_addrs [ 0x40; 0x41; 0x7F ]))

(* --- Workload --- *)

let test_workload_structure () =
  let cfg =
    Tca_workloads.Strfn_workload.config ~n_calls:80 ~app_instrs_per_call:60 ()
  in
  let pair, mean_bytes = Tca_workloads.Strfn_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "invocations" 80 pair.Meta.meta.Meta.invocations;
  Alcotest.(check bool) "granularity in the string-fn band" true
    (mean_bytes > 8.0 && mean_bytes < 250.0);
  Alcotest.(check bool) "a sane" true
    (pair.Meta.meta.Meta.a > 0.1 && pair.Meta.meta.Meta.a < 0.9)

let test_workload_validation () =
  Alcotest.check_raises "no calls"
    (Invalid_argument "Strfn_workload.config: n_calls must be positive") (fun () ->
      ignore (Tca_workloads.Strfn_workload.config ~n_calls:0 ~app_instrs_per_call:10 ()));
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Strfn_workload.config: negative app_instrs_per_call") (fun () ->
      ignore (Tca_workloads.Strfn_workload.config ~n_calls:10 ~app_instrs_per_call:(-1) ()))

let test_workload_determinism () =
  let cfg =
    Tca_workloads.Strfn_workload.config ~n_calls:40 ~app_instrs_per_call:30
      ~seed:5 ()
  in
  let p1, m1 = Tca_workloads.Strfn_workload.generate cfg in
  let p2, m2 = Tca_workloads.Strfn_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "same baseline"
    (Tca_uarch.Trace.length p1.Meta.baseline)
    (Tca_uarch.Trace.length p2.Meta.baseline);
  Alcotest.(check (float 1e-12)) "same mean" m1 m2

let test_experiment_quick () =
  let rows, mean_bytes = Tca_experiments.Strfn_val.run ~quick:true () in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  Alcotest.(check bool) "bytes sane" true (mean_bytes > 8.0);
  let sim m =
    (List.find
       (fun (r : Tca_experiments.Exp_common.validation_row) ->
         Tca_model.Mode.equal r.Tca_experiments.Exp_common.mode m)
       rows)
      .Tca_experiments.Exp_common.sim_speedup
  in
  Alcotest.(check bool) "L_T best" true
    (List.for_all (fun m -> sim Tca_model.Mode.L_T >= sim m) Tca_model.Mode.all)

let () =
  Alcotest.run "tca_strfn"
    [
      ( "arena",
        [
          Alcotest.test_case "add_string" `Quick test_add_string;
          Alcotest.test_case "rejects NUL" `Quick test_add_string_rejects_nul;
          Alcotest.test_case "full" `Quick test_arena_full;
          Alcotest.test_case "strlen" `Quick test_strlen;
          Alcotest.test_case "strcmp" `Quick test_strcmp;
          Alcotest.test_case "find_char" `Quick test_find_char;
          prop_strlen_matches_stdlib;
          prop_strcmp_matches_stdlib;
          prop_find_char_matches_stdlib;
        ] );
      ("cost_model", [ Alcotest.test_case "counts" `Quick test_cost_model ]);
      ( "workload",
        [
          Alcotest.test_case "structure" `Quick test_workload_structure;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "experiment quick" `Slow test_experiment_quick;
        ] );
    ]
