open Tca_logca

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let basic =
  Logca.make ~latency:0.1 ~overhead:100.0 ~compute_index:2.0 ~acceleration:8.0
    ()

let test_make_validation () =
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Logca.make: negative latency") (fun () ->
      ignore
        (Logca.make ~latency:(-1.0) ~overhead:0.0 ~compute_index:1.0
           ~acceleration:2.0 ()));
  Alcotest.check_raises "negative overhead"
    (Invalid_argument "Logca.make: negative overhead") (fun () ->
      ignore
        (Logca.make ~latency:0.0 ~overhead:(-1.0) ~compute_index:1.0
           ~acceleration:2.0 ()));
  Alcotest.check_raises "compute index"
    (Invalid_argument "Logca.make: compute_index must be positive") (fun () ->
      ignore
        (Logca.make ~latency:0.0 ~overhead:0.0 ~compute_index:0.0
           ~acceleration:2.0 ()));
  Alcotest.check_raises "acceleration"
    (Invalid_argument "Logca.make: acceleration must exceed 1") (fun () ->
      ignore
        (Logca.make ~latency:0.0 ~overhead:0.0 ~compute_index:1.0
           ~acceleration:1.0 ()))

let test_times () =
  (* T_C(g) = 2 g; T_A(g) = 100 + 0.1 g + 2 g / 8 *)
  Alcotest.(check bool) "unaccelerated" true
    (feq (Logca.time_unaccelerated basic 50.0) 100.0);
  Alcotest.(check bool) "accelerated" true
    (feq (Logca.time_accelerated basic 50.0) (100.0 +. 5.0 +. 12.5))

let test_time_invalid_granularity () =
  Alcotest.check_raises "g = 0"
    (Invalid_argument "Logca: granularity must be positive") (fun () ->
      ignore (Logca.time_unaccelerated basic 0.0))

let test_speedup_below_above_breakeven () =
  Alcotest.(check bool) "tiny offload loses" true (Logca.speedup basic 1.0 < 1.0);
  Alcotest.(check bool) "large offload wins" true
    (Logca.speedup basic 1.0e6 > 1.0)

let test_break_even () =
  match Logca.break_even basic with
  | None -> Alcotest.fail "break-even expected"
  | Some g1 ->
      Alcotest.(check bool) "speedup(g1) ~ 1" true
        (Float.abs (Logca.speedup basic g1 -. 1.0) < 1e-3);
      Alcotest.(check bool) "below g1 loses" true
        (Logca.speedup basic (g1 /. 2.0) < 1.0)

let test_break_even_never () =
  (* Interface latency worse than the computation: never breaks even. *)
  let t =
    Logca.make ~latency:10.0 ~overhead:10.0 ~compute_index:1.0
      ~acceleration:4.0 ()
  in
  Alcotest.(check bool) "never" true (Logca.break_even t = None)

let test_asymptote () =
  (* Closed form c / (l + c/A). *)
  Alcotest.(check bool) "beta = tau closed form" true
    (feq (Logca.asymptotic_speedup basic) (2.0 /. (0.1 +. 0.25)))

let test_g_half () =
  match Logca.g_half basic with
  | None -> Alcotest.fail "g_half expected"
  | Some g ->
      let target = Logca.asymptotic_speedup basic /. 2.0 in
      Alcotest.(check bool) "speedup(g_half) ~ A/2" true
        (Float.abs (Logca.speedup basic g -. target) < 1e-2 *. target);
      (match Logca.break_even basic with
      | Some g1 -> Alcotest.(check bool) "g_half beyond g1" true (g > g1)
      | None -> Alcotest.fail "break-even expected")

let logca_gen =
  QCheck.(
    map
      (fun (l, o, c, a) ->
        Logca.make ~latency:l ~overhead:o ~compute_index:c ~acceleration:a ())
      (quad (float_range 0.0 1.0) (float_range 0.0 1000.0)
         (float_range 0.1 10.0) (float_range 1.1 64.0)))

let prop_speedup_monotone =
  qtest "speedup monotone in granularity (linear exponents)"
    QCheck.(pair logca_gen (pair (float_range 1.0 1e8) (float_range 1.0 1e8)))
    (fun (t, (g1, g2)) ->
      let lo = Float.min g1 g2 and hi = Float.max g1 g2 in
      Logca.speedup t lo <= Logca.speedup t hi +. 1e-9)

let prop_speedup_bounded_by_asymptote =
  qtest "speedup never exceeds the asymptote"
    QCheck.(pair logca_gen (float_range 1.0 1e9))
    (fun (t, g) -> Logca.speedup t g <= Logca.asymptotic_speedup t +. 1e-6)

let prop_speedup_bounded_by_acceleration =
  qtest "speedup never exceeds A"
    QCheck.(pair logca_gen (float_range 1.0 1e9))
    (fun (t, g) -> Logca.speedup t g <= t.Logca.acceleration +. 1e-6)

let () =
  Alcotest.run "tca_logca"
    [
      ( "logca",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "times" `Quick test_times;
          Alcotest.test_case "invalid granularity" `Quick test_time_invalid_granularity;
          Alcotest.test_case "break-even bracket" `Quick test_speedup_below_above_breakeven;
          Alcotest.test_case "break-even point" `Quick test_break_even;
          Alcotest.test_case "never breaks even" `Quick test_break_even_never;
          Alcotest.test_case "asymptotes" `Quick test_asymptote;
          Alcotest.test_case "g_half" `Quick test_g_half;
          prop_speedup_monotone;
          prop_speedup_bounded_by_asymptote;
          prop_speedup_bounded_by_acceleration;
        ] );
    ]
