open Tca_interval

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* --- Power_law --- *)

let test_calibration_point () =
  (* At the calibration window, draining at the measured IPC. *)
  let fit = Power_law.calibrate ~ipc:2.0 ~window:256 ~beta:2.0 in
  Alcotest.(check bool) "critical path at window" true
    (feq ~eps:1e-6 (Power_law.critical_path fit 256.0) 128.0)

let test_calibrate_invalid () =
  Alcotest.check_raises "bad ipc"
    (Invalid_argument "Power_law.calibrate: ipc must be positive") (fun () ->
      ignore (Power_law.calibrate ~ipc:0.0 ~window:10 ~beta:2.0));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Power_law.calibrate: window must be positive")
    (fun () -> ignore (Power_law.calibrate ~ipc:1.0 ~window:0 ~beta:2.0));
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Power_law.calibrate: beta must be positive") (fun () ->
      ignore (Power_law.calibrate ~ipc:1.0 ~window:10 ~beta:0.0))

let test_critical_path_zero () =
  let fit = Power_law.calibrate ~ipc:1.0 ~window:64 ~beta:2.0 in
  Alcotest.(check bool) "w = 0" true (feq (Power_law.critical_path fit 0.0) 0.0);
  Alcotest.(check bool) "w < 0" true
    (feq (Power_law.critical_path fit (-5.0)) 0.0)

let test_window_for_ipc_inverse () =
  let fit = Power_law.calibrate ~ipc:1.5 ~window:128 ~beta:2.0 in
  let w = Power_law.window_for_ipc fit 1.5 in
  Alcotest.(check bool) "inverse recovers window" true (feq ~eps:1e-4 w 128.0)

let test_window_for_ipc_beta1 () =
  let fit = { Power_law.alpha = 1.0; beta = 1.0 } in
  Alcotest.check_raises "beta = 1"
    (Invalid_argument
       "Power_law.window_for_ipc: beta = 1 gives constant IPC") (fun () ->
      ignore (Power_law.window_for_ipc fit 1.0))

let fit_gen =
  QCheck.(
    map
      (fun (ipc, window, beta) ->
        (ipc, window, beta, Power_law.calibrate ~ipc ~window ~beta))
      (triple (float_range 0.2 6.0) (int_range 8 512) (float_range 1.2 3.0)))

let prop_critical_path_monotone =
  qtest "critical path monotone in window"
    QCheck.(pair fit_gen (pair (float_range 1.0 500.0) (float_range 1.0 500.0)))
    (fun ((_, _, _, fit), (w1, w2)) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      Power_law.critical_path fit lo <= Power_law.critical_path fit hi +. 1e-9)

(* The sustainable issue rate with a window of w instructions is
   w / l(w). *)
let prop_steady_ipc_monotone =
  qtest "steady IPC grows with window (beta > 1)"
    QCheck.(pair fit_gen (pair (float_range 1.0 500.0) (float_range 1.0 500.0)))
    (fun ((_, _, _, fit), (w1, w2)) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      let ipc w = w /. Power_law.critical_path fit w in
      ipc lo <= ipc hi +. 1e-9)

let prop_calibration_consistent =
  qtest "calibrated fit reproduces inputs" fit_gen
    (fun (ipc, window, _, fit) ->
      let w = float_of_int window in
      Float.abs ((w /. Power_law.critical_path fit w) -. ipc) < 1e-6 *. ipc)

(* --- Drain --- *)

let fit = Power_law.calibrate ~ipc:2.0 ~window:256 ~beta:2.0

let test_drain_fixed () =
  let t =
    Drain.time (Drain.Fixed 40.0) ~fit ~window:256 ~interval_instrs:1000.0
      ~non_accl_time:100.0
  in
  Alcotest.(check bool) "fixed used" true (feq t 40.0)

let test_drain_fixed_capped () =
  let t =
    Drain.time (Drain.Fixed 400.0) ~fit ~window:256 ~interval_instrs:1000.0
      ~non_accl_time:100.0
  in
  Alcotest.(check bool) "capped at non-accel work" true (feq t 100.0)

let test_drain_fixed_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Drain.time: negative fixed drain") (fun () ->
      ignore
        (Drain.time (Drain.Fixed (-1.0)) ~fit ~window:256
           ~interval_instrs:10.0 ~non_accl_time:10.0))

let test_drain_auto_full_window () =
  (* Plenty of work: the whole ROB drains at the calibrated rate. *)
  let t =
    Drain.time Drain.Auto ~fit ~window:256 ~interval_instrs:10_000.0
      ~non_accl_time:1.0e9
  in
  Alcotest.(check bool) "l(256) = 128" true (feq ~eps:1e-6 t 128.0)

let test_drain_auto_short_interval () =
  (* Interval shorter than the ROB: only its instructions can be in the
     window. *)
  let t =
    Drain.time Drain.Auto ~fit ~window:256 ~interval_instrs:64.0
      ~non_accl_time:1.0e9
  in
  Alcotest.(check bool) "content-limited" true
    (feq ~eps:1e-6 t (Power_law.critical_path fit 64.0))

let test_drain_auto_capped () =
  let t =
    Drain.time Drain.Auto ~fit ~window:256 ~interval_instrs:10_000.0
      ~non_accl_time:50.0
  in
  Alcotest.(check bool) "capped by t_non_accl" true (feq t 50.0)

let test_drain_refill_aware () =
  let t =
    Drain.time Drain.Refill_aware ~fit ~window:256 ~interval_instrs:10_000.0
      ~non_accl_time:1.0e9
  in
  Alcotest.(check bool) "zero" true (feq t 0.0)

let prop_drain_nonnegative_and_capped =
  qtest "drain in [0, t_non_accl]"
    QCheck.(
      pair
        (oneof
           [
             always Drain.Auto;
             always Drain.Refill_aware;
             map (fun f -> Drain.Fixed f) (float_range 0.0 1000.0);
           ])
        (pair (float_range 0.0 5000.0) (float_range 0.0 5000.0)))
    (fun (spec, (interval_instrs, non_accl_time)) ->
      let t =
        Drain.time spec ~fit ~window:256 ~interval_instrs ~non_accl_time
      in
      t >= 0.0 && t <= non_accl_time +. 1e-9)

let () =
  Alcotest.run "tca_interval"
    [
      ( "power_law",
        [
          Alcotest.test_case "calibration point" `Quick test_calibration_point;
          Alcotest.test_case "calibrate invalid" `Quick test_calibrate_invalid;
          Alcotest.test_case "critical path zero" `Quick test_critical_path_zero;
          Alcotest.test_case "window_for_ipc inverse" `Quick test_window_for_ipc_inverse;
          Alcotest.test_case "window_for_ipc beta 1" `Quick test_window_for_ipc_beta1;
          prop_critical_path_monotone;
          prop_steady_ipc_monotone;
          prop_calibration_consistent;
        ] );
      ( "drain",
        [
          Alcotest.test_case "fixed" `Quick test_drain_fixed;
          Alcotest.test_case "fixed capped" `Quick test_drain_fixed_capped;
          Alcotest.test_case "fixed negative" `Quick test_drain_fixed_negative;
          Alcotest.test_case "auto full window" `Quick test_drain_auto_full_window;
          Alcotest.test_case "auto short interval" `Quick test_drain_auto_short_interval;
          Alcotest.test_case "auto capped" `Quick test_drain_auto_capped;
          Alcotest.test_case "refill aware" `Quick test_drain_refill_aware;
          prop_drain_nonnegative_and_capped;
        ] );
    ]
