open Tca_model

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* Assert that a result is an [Error] carrying the expected [Diag]
   variant. *)
let check_diag name pred = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error, got Ok")
  | Error d ->
      if not (pred d) then
        Alcotest.fail
          (Printf.sprintf "%s: unexpected diagnostic %s" name
             (Diag.to_string d))

let is_domain = function Diag.Domain _ -> true | _ -> false
let is_non_finite = function Diag.Non_finite _ -> true | _ -> false
let is_empty_input = function Diag.Empty_input _ -> true | _ -> false
let is_invalid = function Diag.Invalid _ -> true | _ -> false

(* --- Mode --- *)

let test_mode_all () =
  Alcotest.(check int) "four modes" 4 (List.length Mode.all);
  Alcotest.(check bool) "paper order" true
    (Mode.all = [ Mode.NL_NT; Mode.L_NT; Mode.NL_T; Mode.L_T ])

let test_mode_predicates () =
  Alcotest.(check bool) "NL_NT leading" false (Mode.allows_leading Mode.NL_NT);
  Alcotest.(check bool) "NL_NT trailing" false (Mode.allows_trailing Mode.NL_NT);
  Alcotest.(check bool) "L_NT leading" true (Mode.allows_leading Mode.L_NT);
  Alcotest.(check bool) "L_NT trailing" false (Mode.allows_trailing Mode.L_NT);
  Alcotest.(check bool) "NL_T leading" false (Mode.allows_leading Mode.NL_T);
  Alcotest.(check bool) "NL_T trailing" true (Mode.allows_trailing Mode.NL_T);
  Alcotest.(check bool) "L_T leading" true (Mode.allows_leading Mode.L_T);
  Alcotest.(check bool) "L_T trailing" true (Mode.allows_trailing Mode.L_T)

let test_mode_string_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (match Mode.of_string (Mode.to_string m) with
        | Some m' -> Mode.equal m m'
        | None -> false))
    Mode.all;
  Alcotest.(check bool) "case insensitive" true
    (Mode.of_string "l_t" = Some Mode.L_T);
  Alcotest.(check bool) "unknown" true (Mode.of_string "bogus" = None)

let test_mode_compare () =
  Alcotest.(check int) "self" 0 (Mode.compare Mode.L_T Mode.L_T);
  Alcotest.(check bool) "total order" true
    (List.sort Mode.compare [ Mode.L_T; Mode.NL_NT ] = [ Mode.NL_NT; Mode.L_T ])

let test_mode_hardware () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "non-empty description" true
        (String.length (Mode.hardware_requirements m) > 10))
    Mode.all

(* --- Params --- *)

let test_core_validation () =
  check_diag "ipc zero" is_domain
    (Params.core ~ipc:0.0 ~rob_size:64 ~issue_width:2 ());
  check_diag "rob zero" is_domain
    (Params.core ~ipc:1.0 ~rob_size:0 ~issue_width:2 ());
  check_diag "issue zero" is_domain
    (Params.core ~ipc:1.0 ~rob_size:64 ~issue_width:0 ());
  check_diag "ipc nan" is_non_finite
    (Params.core ~ipc:Float.nan ~rob_size:64 ~issue_width:2 ());
  check_diag "ipc inf" is_non_finite
    (Params.core ~ipc:Float.infinity ~rob_size:64 ~issue_width:2 ());
  check_diag "commit_stall nan" is_non_finite
    (Params.core ~ipc:1.0 ~rob_size:64 ~issue_width:2
       ~commit_stall:Float.nan ());
  (* Diag.ok_exn raises the typed exception. *)
  Alcotest.(check bool) "core_exn raises Diag.Error" true
    (try
       ignore (Diag.ok_exn (Params.core ~ipc:0.0 ~rob_size:64 ~issue_width:2 ()));
       false
     with Diag.Error (Diag.Domain _) -> true)

let test_scenario_validation () =
  check_diag "a above 1" is_domain
    (Params.scenario ~a:1.5 ~v:0.1 ~accel:(Params.Factor 2.0) ());
  check_diag "v negative" is_domain
    (Params.scenario ~a:0.5 ~v:(-0.1) ~accel:(Params.Factor 2.0) ());
  check_diag "granularity below 1" is_domain
    (Params.scenario ~a:0.1 ~v:0.5 ~accel:(Params.Factor 2.0) ());
  check_diag "factor zero" is_domain
    (Params.scenario ~a:0.5 ~v:0.1 ~accel:(Params.Factor 0.0) ());
  check_diag "latency negative" is_domain
    (Params.scenario ~a:0.5 ~v:0.1 ~accel:(Params.Latency (-1.0)) ());
  check_diag "a nan" is_non_finite
    (Params.scenario ~a:Float.nan ~v:0.1 ~accel:(Params.Factor 2.0) ());
  check_diag "v inf" is_non_finite
    (Params.scenario ~a:0.5 ~v:Float.infinity ~accel:(Params.Factor 2.0) ());
  check_diag "factor nan" is_non_finite
    (Params.scenario ~a:0.5 ~v:0.1 ~accel:(Params.Factor Float.nan) ());
  check_diag "fixed drain inf" is_non_finite
    (Params.scenario
       ~drain:(Tca_interval.Drain.Fixed Float.infinity)
       ~a:0.5 ~v:0.1 ~accel:(Params.Factor 2.0) ())

let test_granularity () =
  let s = Params.scenario_exn ~a:0.3 ~v:0.003 ~accel:(Params.Factor 2.0) () in
  Alcotest.(check bool) "g = a/v" true (feq (Diag.ok_exn (Params.granularity s)) 100.0);
  let s0 = Params.scenario_exn ~a:0.0 ~v:0.0 ~accel:(Params.Factor 2.0) () in
  check_diag "v = 0" is_invalid (Params.granularity s0)

let test_scenario_of_granularity () =
  let s =
    Diag.ok_exn (Params.scenario_of_granularity ~a:0.4 ~g:200.0 ~accel:(Params.Factor 3.0)
      ())
  in
  Alcotest.(check bool) "v derived" true (feq s.Params.v 0.002);
  check_diag "g below 1" is_domain
    (Params.scenario_of_granularity ~a:0.4 ~g:0.5 ~accel:(Params.Factor 3.0)
       ());
  check_diag "g nan" is_non_finite
    (Params.scenario_of_granularity ~a:0.4 ~g:Float.nan
       ~accel:(Params.Factor 3.0) ())

let test_glossary () =
  Alcotest.(check int) "eight parameters (Table I + t_config)" 8
    (List.length Params.glossary)

(* --- Equations --- *)

let hp = Presets.hp_core

(* Hand-checked numeric example: a=0.5, v=0.01, A=2, ipc=2, rob=128,
   w=4, t_commit=5, drain fixed 20.
   t_baseline = 1/(0.01*2) = 50; t_accl = 0.5/(0.01*2*2) = 12.5;
   t_non_accl = 25; t_rob_fill = 32.
   NL_NT = 25 + 12.5 + 20 + 10 = 67.5  -> speedup 0.7407
   L_NT  = 25 + 12.5 + 5 = 42.5        -> speedup 1.1765
   NL_T  = max(25 + max(0, 20+12.5+5-32), 12.5+20+5)
         = max(30.5, 37.5) = 37.5      -> speedup 1.3333
   L_T   = max(25 + max(0, 12.5-32), 12.5) = 25 -> speedup 2.0 *)
let example_core =
  Diag.ok_exn (Params.core ~ipc:2.0 ~rob_size:128 ~issue_width:4 ~commit_stall:5.0 ())

let example_scenario =
  Params.scenario_exn
    ~drain:(Tca_interval.Drain.Fixed 20.0)
    ~a:0.5 ~v:0.01 ~accel:(Params.Factor 2.0) ()

let test_equations_times () =
  let t = Diag.ok_exn (Equations.interval_times example_core example_scenario) in
  Alcotest.(check bool) "baseline" true (feq t.Equations.t_baseline 50.0);
  Alcotest.(check bool) "accl" true (feq t.Equations.t_accl 12.5);
  Alcotest.(check bool) "non accl" true (feq t.Equations.t_non_accl 25.0);
  Alcotest.(check bool) "drain" true (feq t.Equations.t_drain 20.0);
  Alcotest.(check bool) "rob fill" true (feq t.Equations.t_rob_fill 32.0);
  Alcotest.(check bool) "commit" true (feq t.Equations.t_commit 5.0)

let test_equations_mode_times () =
  let time m = Diag.ok_exn (Equations.mode_time example_core example_scenario m) in
  Alcotest.(check bool) "NL_NT eq (4)" true (feq (time Mode.NL_NT) 67.5);
  Alcotest.(check bool) "L_NT eq (5)" true (feq (time Mode.L_NT) 42.5);
  Alcotest.(check bool) "NL_T eq (7)" true (feq (time Mode.NL_T) 37.5);
  Alcotest.(check bool) "L_T eq (9)" true (feq (time Mode.L_T) 25.0)

let test_equations_speedups () =
  let sp m = Equations.speedup_exn example_core example_scenario m in
  Alcotest.(check bool) "NL_NT" true (feq ~eps:1e-4 (sp Mode.NL_NT) (50.0 /. 67.5));
  Alcotest.(check bool) "L_T" true (feq (sp Mode.L_T) 2.0)

let test_equations_latency_variant () =
  let s =
    Params.scenario_exn
      ~drain:(Tca_interval.Drain.Fixed 0.0)
      ~a:0.5 ~v:0.01 ~accel:(Params.Latency 12.5) ()
  in
  Alcotest.(check bool) "explicit latency equals factor form" true
    (feq
       (Diag.ok_exn (Equations.mode_time example_core s Mode.L_NT))
       (Diag.ok_exn (Equations.mode_time example_core example_scenario Mode.L_NT)))

let test_equations_v_zero () =
  let s = Params.scenario_exn ~a:0.0 ~v:0.0 ~accel:(Params.Factor 2.0) () in
  List.iter
    (fun m ->
      Alcotest.(check bool) "speedup 1 with no invocations" true
        (feq (Equations.speedup_exn hp s m) 1.0))
    Mode.all;
  check_diag "interval_times rejects v = 0" is_domain
    (Equations.interval_times hp s)

let test_best_mode () =
  let m, sp = Diag.ok_exn (Equations.best_mode example_core example_scenario) in
  Alcotest.(check bool) "L_T best" true (Mode.equal m Mode.L_T);
  Alcotest.(check bool) "speedup 2" true (feq sp 2.0)

let test_ideal_speedup () =
  (* t_baseline / (t_non_accl + t_accl) = 50 / 37.5 *)
  Alcotest.(check bool) "naive estimate" true
    (feq ~eps:1e-6
       (Diag.ok_exn (Equations.ideal_speedup example_core example_scenario))
       (50.0 /. 37.5))

(* --- Configuration cost: terms (T1)-(T3) --- *)

let test_config_validation () =
  check_diag "sync negative" is_domain
    (Params.validate_config (Params.Sync (-1.0)));
  check_diag "sync nan" is_non_finite
    (Params.validate_config (Params.Sync Float.nan));
  check_diag "queued t_config negative" is_domain
    (Params.validate_config (Params.Queued { t_config = -2.0; depth = 4 }));
  check_diag "queued depth zero" is_domain
    (Params.validate_config (Params.Queued { t_config = 1.0; depth = 0 }));
  check_diag "preprog t_config inf" is_non_finite
    (Params.validate_config
       (Params.Preprogrammed { t_config = Float.infinity; invocations = 10 }));
  check_diag "preprog invocations zero" is_domain
    (Params.validate_config
       (Params.Preprogrammed { t_config = 1.0; invocations = 0 }));
  check_diag "scenario rejects invalid config" is_domain
    (Params.scenario
       ~config:(Params.Sync (-1.0))
       ~a:0.5 ~v:0.01 ~accel:(Params.Factor 2.0) ());
  check_diag "unit_scenario rejects invalid config" is_domain
    (Params.unit_scenario
       ~config:(Params.Queued { t_config = 1.0; depth = 0 })
       ~a:0.5 ~v:0.01 ~accel:(Params.Factor 2.0) ());
  Alcotest.(check bool) "valid configs accepted" true
    (List.for_all
       (fun c -> Result.is_ok (Params.validate_config c))
       [
         Params.No_config; Params.Sync 0.0; Params.Sync 40.0;
         Params.Queued { t_config = 100.0; depth = 1 };
         Params.Preprogrammed { t_config = 1.0e6; invocations = 1 };
       ])

let config_name = function
  | Params.No_config -> "none"
  | Params.Sync _ -> "sync"
  | Params.Queued _ -> "queued"
  | Params.Preprogrammed _ -> "preprog"

(* Each mechanism at t_config = 0 must leave the pinned hand-checked
   eqs. (4)-(9) mode times byte-identically untouched. *)
let test_config_zero_reduces_to_baseline () =
  List.iter
    (fun config ->
      let s = { example_scenario with Params.config } in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (config_name config ^ " at 0 is the identity")
            true
            (feq
               (Diag.ok_exn (Equations.mode_time example_core s m))
               (Diag.ok_exn (Equations.mode_time example_core example_scenario m))))
        Mode.all)
    [
      Params.Sync 0.0;
      Params.Queued { t_config = 0.0; depth = 4 };
      Params.Preprogrammed { t_config = 0.0; invocations = 7 };
    ]

(* Pinned (T1)-(T3) values on the hand-checked example: L_NT base time
   is 42.5 (t_baseline 50).
   (T1) Sync 10:                 42.5 + 10        = 52.5
   (T2) Queued 100:              max(42.5, 100)   = 100
   (T2) Queued 30:               max(42.5, 30)    = 42.5  (execution-bound)
   (T3) Preprog 100 over 10:     42.5 + 100/10    = 52.5 *)
let test_config_terms_pinned () =
  let time config =
    Diag.ok_exn (Equations.mode_time example_core
      { example_scenario with Params.config }
      Mode.L_NT)
  in
  Alcotest.(check bool) "(T1) sync adds to the critical path" true
    (feq (time (Params.Sync 10.0)) 52.5);
  Alcotest.(check bool) "(T2) queued is a throughput bound" true
    (feq (time (Params.Queued { t_config = 100.0; depth = 4 })) 100.0);
  Alcotest.(check bool) "(T2) queued under base is free" true
    (feq (time (Params.Queued { t_config = 30.0; depth = 4 })) 42.5);
  Alcotest.(check bool) "(T2) depth does not change the steady state" true
    (feq
       (time (Params.Queued { t_config = 100.0; depth = 1 }))
       (time (Params.Queued { t_config = 100.0; depth = 64 })));
  Alcotest.(check bool) "(T3) preprog amortizes" true
    (feq (time (Params.Preprogrammed { t_config = 100.0; invocations = 10 }))
       52.5)

(* The composed model must evaluate a single configured unit to exactly
   the single-unit equations with the same config — the N = 1 reduction
   extended to the (T1)-(T3) terms. *)
let test_composed_config_reduction () =
  List.iter
    (fun config ->
      let s = { example_scenario with Params.config } in
      let comp = Params.composition_of_scenario s in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (config_name config ^ " composed = single-unit")
            true
            (feq ~eps:1e-6
               (Diag.ok_exn (Equations.composed_speedup example_core comp m))
               (Equations.speedup_exn example_core s m)))
        Mode.all)
    [
      Params.No_config; Params.Sync 10.0;
      Params.Queued { t_config = 100.0; depth = 4 };
      Params.Preprogrammed { t_config = 100.0; invocations = 10 };
    ]

let test_config_break_even () =
  let accel = Params.Factor 2.0 in
  let config = Params.Sync 100.0 in
  (match
     Diag.ok_exn (Equations.config_break_even example_core ~a:0.5 ~accel ~config
       Mode.L_T)
   with
  | None -> Alcotest.fail "sync 100 must break even below 1e9"
  | Some g ->
      Alcotest.(check bool) "crossing above the floor" true (g > 1.0);
      let speedup_at g =
        Equations.speedup_exn example_core
          (Diag.ok_exn (Params.scenario_of_granularity ~config ~a:0.5 ~g ~accel ()))
          Mode.L_T
      in
      Alcotest.(check bool) "speedup >= 1 at the crossing" true
        (speedup_at g >= 1.0 -. 1e-3);
      Alcotest.(check bool) "speedup < 1 just below the crossing" true
        (speedup_at (g /. 2.0) < 1.0));
  Alcotest.(check bool) "astronomic cost never breaks even" true
    (Diag.ok_exn (Equations.config_break_even example_core ~a:0.5 ~accel
       ~config:(Params.Sync 1.0e18) Mode.L_T)
    = None);
  Alcotest.(check bool) "no cost breaks even immediately" true
    (Diag.ok_exn (Equations.config_break_even example_core ~a:0.5 ~accel
       ~config:Params.No_config Mode.L_T)
    = Some 1.0)

let config_gen =
  QCheck.(
    map
      (fun (c, depth, n, which) ->
        match which mod 3 with
        | 0 -> Params.Sync c
        | 1 -> Params.Queued { t_config = c; depth }
        | _ -> Params.Preprogrammed { t_config = c; invocations = n })
      (quad (float_range 0.0 1.0e4) (int_range 1 16) (int_range 1 10_000)
         (int_range 0 2)))

let scenario_gen =
  QCheck.(
    map
      (fun (a, g, f) ->
        Diag.ok_exn (Params.scenario_of_granularity ~a ~g ~accel:(Params.Factor f) ()))
      (triple (float_range 0.01 0.99) (float_range 1.0 1.0e6)
         (float_range 0.5 50.0)))

let core_gen =
  QCheck.(
    map
      (fun (ipc, rob, width, commit) ->
        Diag.ok_exn (Params.core ~ipc ~rob_size:rob ~issue_width:width
          ~commit_stall:commit ()))
      (quad (float_range 0.2 6.0) (int_range 16 512) (int_range 1 8)
         (float_range 0.0 20.0)))

let prop_mode_ordering =
  qtest "more hardware never hurts: t_L_T <= t_{L_NT, NL_T} <= t_NL_NT"
    QCheck.(pair core_gen scenario_gen)
    (fun (core, s) ->
      let t m = Diag.ok_exn (Equations.mode_time core s m) in
      t Mode.L_T <= t Mode.L_NT +. 1e-6
      && t Mode.L_T <= t Mode.NL_T +. 1e-6
      && t Mode.L_NT <= t Mode.NL_NT +. 1e-6
      && t Mode.NL_T <= t Mode.NL_NT +. 1e-6)

let prop_speedup_positive =
  qtest "speedups positive and finite"
    QCheck.(pair core_gen scenario_gen)
    (fun (core, s) ->
      List.for_all
        (fun (_, sp) -> sp > 0.0 && Float.is_finite sp)
        (Diag.ok_exn (Equations.speedups core s)))

let prop_l_t_bounded_by_a_plus_1 =
  qtest "L_T speedup bounded by A + 1"
    QCheck.(pair core_gen scenario_gen)
    (fun (core, s) ->
      match s.Params.accel with
      | Params.Factor f ->
          Equations.speedup_exn core s Mode.L_T <= f +. 1.0 +. 1e-6
      | Params.Latency _ -> true)

let prop_best_mode_is_max =
  qtest "best_mode returns the maximum"
    QCheck.(pair core_gen scenario_gen)
    (fun (core, s) ->
      let _, best = Diag.ok_exn (Equations.best_mode core s) in
      List.for_all (fun (_, sp) -> sp <= best +. 1e-9)
        (Diag.ok_exn (Equations.speedups core s)))

(* (T1)-(T3) against the closed forms, and the zero-cost identity, over
   random cores, scenarios and configuration mechanisms. *)
let prop_config_terms =
  qtest "(T1)-(T3) match the closed forms; zero cost is the identity"
    QCheck.(triple core_gen scenario_gen config_gen)
    (fun (core, s, config) ->
      let base m = Diag.ok_exn (Equations.mode_time core s m) in
      let with_config config m =
        Diag.ok_exn (Equations.mode_time core { s with Params.config } m)
      in
      let expected config m =
        match config with
        | Params.No_config -> base m
        | Params.Sync c -> base m +. c
        | Params.Queued { t_config = c; _ } -> Float.max (base m) c
        | Params.Preprogrammed { t_config = c; invocations = n } ->
            base m +. (c /. float_of_int n)
      in
      let zeroed = function
        | Params.No_config -> Params.No_config
        | Params.Sync _ -> Params.Sync 0.0
        | Params.Queued q -> Params.Queued { q with t_config = 0.0 }
        | Params.Preprogrammed p ->
            Params.Preprogrammed { p with t_config = 0.0 }
      in
      List.for_all
        (fun m ->
          feq ~eps:1e-6 (with_config config m) (expected config m)
          && feq (with_config (zeroed config) m) (base m))
        Mode.all)

(* --- Composition --- *)

(* The reduction property compares two float pipelines that differ only
   in association order, so compare relatively rather than bitwise. *)
let releq ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.abs b)

let test_composition_validation () =
  check_diag "no units" is_empty_input (Params.composition ~units:[] ());
  let u = Params.unit_scenario_exn ~a:0.6 ~v:0.01 ~accel:(Params.Factor 2.0) () in
  check_diag "total a > 1" is_domain (Params.composition ~units:[ u; u ] ());
  check_diag "chained below range" is_domain
    (Params.composition ~chained:(-0.1) ~units:[ u ] ());
  check_diag "chained above range" is_domain
    (Params.composition ~chained:1.5 ~units:[ u ] ());
  check_diag "unit a out of range" is_domain
    (Params.unit_scenario ~a:1.2 ~v:0.01 ~accel:(Params.Factor 2.0) ());
  check_diag "unit granularity below one" is_domain
    (Params.unit_scenario ~a:0.05 ~v:0.1 ~accel:(Params.Factor 2.0) ())

(* The pinned contract of the whole composed-model extension: lifting a
   single-unit scenario through [composition_of_scenario] reproduces
   eqs. (4)-(9) exactly, for every drain estimator, accel-time form,
   core and mode. *)
let test_composed_reduces_to_single_unit () =
  List.iter
    (fun core ->
      List.iter
        (fun drain ->
          List.iter
            (fun accel ->
              let s = Params.scenario_exn ~drain ~a:0.6 ~v:0.01 ~accel () in
              let c = Params.composition_of_scenario s in
              List.iter
                (fun m ->
                  let single = Equations.speedup_exn core s m in
                  let composed = Diag.ok_exn (Equations.composed_speedup core c m) in
                  if not (releq single composed) then
                    Alcotest.failf "mode %s: single %.12g <> composed %.12g"
                      (Mode.to_string m) single composed)
                Mode.all)
            [ Params.Factor 4.0; Params.Latency 30.0 ])
        [
          Tca_interval.Drain.Auto;
          Tca_interval.Drain.Refill_aware;
          Tca_interval.Drain.Fixed 20.0;
        ])
    [ Presets.hp_core; Presets.lp_core ]

let prop_composed_reduction =
  qtest "composition of one unit matches eqs. (4)-(9)"
    QCheck.(pair core_gen scenario_gen)
    (fun (core, s) ->
      let c = Params.composition_of_scenario s in
      List.for_all
        (fun m ->
          releq ~eps:1e-6
            (Diag.ok_exn (Equations.composed_speedup core c m))
            (Equations.speedup_exn core s m))
        Mode.all)

(* Every composed term is linear in (a_i, v_i) at fixed t_i, so
   splitting one unit into two identical halves must not move any mode
   time. *)
let test_composed_split_invariance () =
  let mk a v = Params.unit_scenario_exn ~a ~v ~accel:(Params.Latency 40.0) () in
  let whole = Params.composition_exn ~units:[ mk 0.6 0.01 ] () in
  let halves =
    Params.composition_exn ~units:[ mk 0.3 0.005; mk 0.3 0.005 ] ()
  in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        ("split " ^ Mode.to_string m)
        true
        (releq
           (Diag.ok_exn (Equations.composed_speedup Presets.hp_core whole m))
           (Diag.ok_exn (Equations.composed_speedup Presets.hp_core halves m))))
    Mode.all

let contended_units () =
  [
    Params.unit_scenario_exn ~a:0.3 ~v:0.005 ~accel:(Params.Latency 10.0) ();
    Params.unit_scenario_exn ~a:0.3 ~v:0.005 ~accel:(Params.Latency 60.0) ();
  ]

let test_composed_chained_contention () =
  let speedup ~chained ~commit_port m =
    Diag.ok_exn (Equations.composed_speedup Presets.hp_core
      (Params.composition_exn ~chained ~commit_port
         ~units:(contended_units ()) ())
      m)
  in
  let chis = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  (* Shared port: chaining serializes commits, so L_NT (no drain term to
     offset it) strictly loses speedup as the chained fraction grows. *)
  let shared = List.map (fun x -> speedup ~chained:x ~commit_port:Params.Shared Mode.L_NT) chis in
  List.iter2
    (fun lo hi -> Alcotest.(check bool) "shared L_NT decreasing" true (lo > hi))
    (List.filteri (fun i _ -> i < List.length shared - 1) shared)
    (List.tl shared);
  (* Private port: no contention term and L_NT has no drain term, so the
     chained fraction is irrelevant. *)
  List.iter
    (fun x ->
      Alcotest.(check bool) "private L_NT constant" true
        (releq
           (speedup ~chained:x ~commit_port:Params.Private Mode.L_NT)
           (speedup ~chained:0.0 ~commit_port:Params.Private Mode.L_NT)))
    chis;
  (* Private NL_NT only benefits from chaining (shared window drains). *)
  List.iter2
    (fun lo hi ->
      Alcotest.(check bool) "private NL_NT non-decreasing" true
        (hi >= lo -. 1e-9))
    (List.filteri (fun i _ -> i < 4)
       (List.map (fun x -> speedup ~chained:x ~commit_port:Params.Private Mode.NL_NT) chis))
    (List.tl (List.map (fun x -> speedup ~chained:x ~commit_port:Params.Private Mode.NL_NT) chis));
  (* A private port never hurts, and at chained = 0 it changes nothing. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "private >= shared" true
        (speedup ~chained:0.5 ~commit_port:Params.Private m
        >= speedup ~chained:0.5 ~commit_port:Params.Shared m -. 1e-9);
      Alcotest.(check bool) "ports agree at chained 0" true
        (releq
           (speedup ~chained:0.0 ~commit_port:Params.Private m)
           (speedup ~chained:0.0 ~commit_port:Params.Shared m)))
    Mode.all

let test_composed_v_zero () =
  let u = Params.unit_scenario_exn ~a:0.0 ~v:0.0 ~accel:(Params.Factor 2.0) () in
  let c = Params.composition_exn ~units:[ u; u ] () in
  List.iter
    (fun m ->
      Alcotest.(check bool) "no invocations: speedup 1" true
        (match Equations.composed_speedup Presets.hp_core c m with
        | Ok sp -> feq sp 1.0
        | Error _ -> false))
    Mode.all;
  check_diag "composed_times rejects v_total 0" is_domain
    (Equations.composed_times Presets.hp_core c)

let test_composed_best_mode () =
  let c = Params.composition_exn ~chained:0.5 ~units:(contended_units ()) () in
  let m, best = Diag.ok_exn (Equations.composed_best_mode Presets.hp_core c) in
  let sps = Diag.ok_exn (Equations.composed_speedups Presets.hp_core c) in
  Alcotest.(check bool) "best is the max" true
    (List.for_all (fun (_, sp) -> sp <= best +. 1e-9) sps);
  Alcotest.(check bool) "best mode listed" true (List.mem_assoc m sps)

(* --- Presets --- *)

let test_presets () =
  Alcotest.(check bool) "hp" true (feq Presets.hp_core.Params.ipc 1.8);
  Alcotest.(check int) "hp rob" 256 Presets.hp_core.Params.rob_size;
  Alcotest.(check bool) "lp" true (feq Presets.lp_core.Params.ipc 0.5);
  Alcotest.(check int) "lp issue" 2 Presets.lp_core.Params.issue_width;
  Alcotest.(check int) "a72 rob" 128 Presets.arm_a72.Params.rob_size;
  Alcotest.(check bool) "by_name hp" true (Presets.by_name "HP" <> None);
  Alcotest.(check bool) "by_name unknown" true (Presets.by_name "zen" = None);
  Alcotest.(check int) "names" 3 (List.length Presets.names)

(* --- Granularity --- *)

let test_markers () =
  Alcotest.(check int) "eight reference accelerators" 8
    (List.length Granularity.reference_markers);
  let sorted =
    List.sort
      (fun a b ->
        compare a.Granularity.granularity b.Granularity.granularity)
      Granularity.reference_markers
  in
  Alcotest.(check string) "finest is heap" "heap management"
    (List.hd sorted).Granularity.name

let test_granularity_series () =
  let gs = Tca_util.Sweep.logspace_exn 10.0 1.0e9 10 in
  let series =
    Granularity.series Presets.arm_a72 ~a:0.3 ~accel:(Params.Factor 3.0) ~gs
  in
  Alcotest.(check int) "four series" 4 (List.length series);
  List.iter
    (fun (_, pts) ->
      Alcotest.(check int) "point count" 10 (Array.length pts))
    series

let test_granularity_amdahl_convergence () =
  (* At extreme granularity every mode approaches the Amdahl limit. *)
  let amdahl = 1.0 /. (1.0 -. 0.3 +. (0.3 /. 3.0)) in
  let gs = [| 1.0e9 |] in
  let series =
    Granularity.series Presets.arm_a72 ~a:0.3 ~accel:(Params.Factor 3.0) ~gs
  in
  List.iter
    (fun (_, pts) ->
      Alcotest.(check bool) "near Amdahl" true
        (Float.abs (snd pts.(0) -. amdahl) < 0.01))
    series

let test_crossover () =
  (* NL_NT on the A72 with a=0.3, A=3 starts in slowdown and crosses 1.0
     somewhere in the sweep. *)
  match
    Granularity.crossover_granularity Presets.arm_a72 ~a:0.3
      ~accel:(Params.Factor 3.0) Mode.NL_NT
  with
  | Some g -> Alcotest.(check bool) "crossover in range" true (g > 10.0 && g < 1.0e6)
  | None -> Alcotest.fail "expected a crossover"

let test_crossover_none_for_l_t () =
  (* L_T never slows this scenario down, so there is no crossover. *)
  Alcotest.(check bool) "always speedup" true
    (Granularity.crossover_granularity Presets.arm_a72 ~a:0.3
       ~accel:(Params.Factor 3.0) Mode.L_T
    = None)

(* --- Concurrency --- *)

let test_ideal_peaks () =
  Alcotest.(check bool) "coverage A=2" true
    (feq (Diag.ok_exn (Concurrency.ideal_peak_coverage ~accel_factor:2.0)) (2.0 /. 3.0));
  Alcotest.(check bool) "speedup A=2" true
    (feq (Diag.ok_exn (Concurrency.ideal_peak_speedup ~accel_factor:2.0)) 3.0);
  Alcotest.(check bool) "coverage A=5" true
    (feq (Diag.ok_exn (Concurrency.ideal_peak_coverage ~accel_factor:5.0)) (5.0 /. 6.0))

let test_concurrency_peak_matches_theory () =
  let coverages = Tca_util.Sweep.linspace_exn 0.0 0.99 199 in
  let pts =
    Diag.ok_exn (Concurrency.coverage_series hp ~g:100.0 ~accel:(Params.Factor 2.0)
      ~coverages Mode.L_T)
  in
  let a_star, s_star = Diag.ok_exn (Concurrency.peak pts) in
  Alcotest.(check bool) "peak near 2/3" true (Float.abs (a_star -. 0.667) < 0.02);
  Alcotest.(check bool) "peak near 3" true (Float.abs (s_star -. 3.0) < 0.05)

let test_coverage_zero () =
  let pts =
    Diag.ok_exn (Concurrency.coverage_series hp ~g:100.0 ~accel:(Params.Factor 2.0)
      ~coverages:[| 0.0 |] Mode.L_T)
  in
  Alcotest.(check bool) "a = 0 gives speedup 1" true (feq (snd pts.(0)) 1.0)

let test_peak_empty () =
  check_diag "empty" is_empty_input (Concurrency.peak [||]);
  check_diag "bad granularity" is_domain
    (Concurrency.coverage_series hp ~g:0.5 ~accel:(Params.Factor 2.0)
       ~coverages:[| 0.1 |] Mode.L_T)

let test_local_maxima () =
  let series = [| (0.0, 1.0); (1.0, 3.0); (2.0, 2.0); (3.0, 4.0); (4.0, 1.0) |] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "two interior maxima"
    [ (1.0, 3.0); (3.0, 4.0) ]
    (Concurrency.local_maxima series);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "monotone has none" []
    (Concurrency.local_maxima [| (0.0, 1.0); (1.0, 2.0); (2.0, 3.0) |])

(* --- Grid --- *)

let test_grid_compute () =
  let freqs = Tca_util.Sweep.logspace_exn 1e-5 1e-1 10 in
  (* Low coverages with high frequencies are infeasible (a < v). *)
  let coverages = Tca_util.Sweep.linspace_exn 0.01 0.9 5 in
  let g = Diag.ok_exn (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs ~coverages Mode.L_T) in
  Alcotest.(check int) "rows" 5 (Array.length g.Grid.cells);
  Alcotest.(check int) "cols" 10 (Array.length g.Grid.cells.(0));
  (* Infeasible cells (a < v) are NaN. *)
  let has_nan = ref false and has_value = ref false in
  Array.iter
    (Array.iter (fun x ->
         if Float.is_nan x then has_nan := true else has_value := true))
    g.Grid.cells;
  Alcotest.(check bool) "has feasible cells" true !has_value;
  Alcotest.(check bool) "has infeasible cells" true !has_nan

let test_grid_slowdown_fraction () =
  let freqs = Tca_util.Sweep.logspace_exn 1e-5 1e-1 10 in
  let coverages = Tca_util.Sweep.linspace_exn 0.1 0.9 5 in
  let frac mode =
    Grid.slowdown_fraction
      (Diag.ok_exn (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs ~coverages mode))
  in
  let f_nlnt = frac Mode.NL_NT and f_lt = frac Mode.L_T in
  Alcotest.(check bool) "fractions in range" true
    (f_nlnt >= 0.0 && f_nlnt <= 1.0 && f_lt >= 0.0 && f_lt <= 1.0);
  Alcotest.(check bool) "NL_NT riskier than L_T" true (f_nlnt >= f_lt)

let test_grid_accelerator_curve () =
  let freqs = Tca_util.Sweep.logspace_exn 1e-5 1e-1 20 in
  let coverages = Tca_util.Sweep.linspace_exn 0.1 0.9 9 in
  let g =
    Diag.ok_exn (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs ~coverages Mode.L_T)
  in
  let curve = Diag.ok_exn (Grid.accelerator_curve g ~granularity:100.0) in
  Alcotest.(check bool) "non-empty" true (curve <> []);
  List.iter
    (fun (r, c) ->
      Alcotest.(check bool) "cell in range" true
        (r >= 0 && r < 9 && c >= 0 && c < 20))
    curve

let test_grid_empty_axis () =
  check_diag "empty freqs" is_empty_input
    (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs:[||]
       ~coverages:[| 0.5 |] Mode.L_T);
  check_diag "empty coverages" is_empty_input
    (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs:[| 0.01 |]
       ~coverages:[||] Mode.L_T)

let test_grid_no_failures_on_clean_sweep () =
  let freqs = Tca_util.Sweep.logspace_exn 1e-5 1e-1 10 in
  let coverages = Tca_util.Sweep.linspace_exn 0.1 0.9 5 in
  let g =
    Diag.ok_exn (Grid.compute hp ~accel:(Params.Factor 1.5) ~freqs ~coverages Mode.L_T)
  in
  Alcotest.(check int) "no recorded failures" 0 (List.length g.Grid.failures)

(* --- Sensitivity --- *)

let test_sensitivity_delta_domain () =
  let s =
    Params.scenario_exn ~a:0.35 ~v:(1.0 /. 150.0) ~accel:(Params.Latency 1.0)
      ()
  in
  match Sensitivity.swings hp s Mode.L_T with
  | Ok swings ->
      Alcotest.(check int) "one swing per parameter"
        (List.length Sensitivity.all_parameters)
        (List.length swings)
  | Error _ -> Alcotest.fail "default delta valid"

(* --- Partial --- *)

let partial_scenario =
  Params.scenario_exn ~a:0.35 ~v:(1.0 /. 150.0) ~accel:(Params.Latency 1.0) ()

let test_partial_endpoints () =
  let t_l = Diag.ok_exn (Equations.mode_time hp partial_scenario Mode.L_T) in
  let t_nl = Diag.ok_exn (Equations.mode_time hp partial_scenario Mode.NL_T) in
  Alcotest.(check bool) "p=1 gives L" true
    (feq (Partial.mode_time hp partial_scenario ~trailing:true ~p_speculate:1.0) t_l);
  Alcotest.(check bool) "p=0 gives NL" true
    (feq (Partial.mode_time hp partial_scenario ~trailing:true ~p_speculate:0.0) t_nl)

let test_partial_monotone () =
  let prev = ref 0.0 in
  for i = 0 to 10 do
    let p = float_of_int i /. 10.0 in
    let sp = Partial.speedup hp partial_scenario ~trailing:true ~p_speculate:p in
    Alcotest.(check bool) "monotone in p" true (sp >= !prev -. 1e-9);
    prev := sp
  done

let test_partial_invalid () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Partial.mode_time: p_speculate out of [0, 1]")
    (fun () ->
      ignore
        (Partial.mode_time hp partial_scenario ~trailing:true ~p_speculate:1.5))

let test_required_confidence () =
  let full = Equations.speedup_exn hp partial_scenario Mode.L_T in
  (match
     Partial.required_confidence hp partial_scenario ~trailing:true
       ~target_speedup:full
   with
  | Some p -> Alcotest.(check bool) "needs full speculation" true (p > 0.99)
  | None -> Alcotest.fail "p = 1 reaches the target");
  Alcotest.(check bool) "unreachable target" true
    (Partial.required_confidence hp partial_scenario ~trailing:true
       ~target_speedup:(full *. 2.0)
    = None);
  match
    Partial.required_confidence hp partial_scenario ~trailing:true
      ~target_speedup:0.5
  with
  | Some p -> Alcotest.(check bool) "trivial target at p = 0" true (feq p 0.0)
  | None -> Alcotest.fail "trivial target reachable"

(* --- Validate --- *)

let test_validate_error () =
  let p =
    { Validate.id = "x"; mode = Mode.L_T; measured = 2.0; estimated = 2.2 }
  in
  Alcotest.(check bool) "10 percent optimistic" true
    (feq ~eps:1e-9 (Diag.ok_exn (Validate.error p)) 0.1)

let test_validate_summarize () =
  let mk e =
    { Validate.id = "x"; mode = Mode.L_T; measured = 1.0; estimated = 1.0 +. e }
  in
  let s = Diag.ok_exn (Validate.summarize [ mk 0.1; mk (-0.2); mk 0.3 ]) in
  Alcotest.(check int) "n" 3 s.Validate.n;
  Alcotest.(check bool) "mean" true (feq ~eps:1e-6 s.Validate.mean_abs_pct 20.0);
  Alcotest.(check bool) "median" true (feq ~eps:1e-6 s.Validate.median_abs_pct 20.0);
  Alcotest.(check bool) "max" true (feq ~eps:1e-6 s.Validate.max_abs_pct 30.0);
  check_diag "empty" is_empty_input (Validate.summarize []);
  check_diag "zero measurement" is_invalid
    (Validate.summarize
       [ { Validate.id = "z"; mode = Mode.L_T; measured = 0.0; estimated = 1.0 } ])

let test_trends_preserved () =
  let mk id mode measured estimated =
    { Validate.id; mode; measured; estimated }
  in
  let good =
    [
      mk "w" Mode.NL_NT 0.8 0.7;
      mk "w" Mode.L_NT 1.1 1.0;
      mk "w" Mode.NL_T 1.3 1.2;
      mk "w" Mode.L_T 1.6 1.9;
    ]
  in
  Alcotest.(check bool) "order preserved" true (Validate.trends_preserved good);
  let bad =
    [ mk "w" Mode.NL_NT 0.8 1.9; mk "w" Mode.L_T 1.6 0.7 ]
  in
  Alcotest.(check bool) "inversion detected" false
    (Validate.trends_preserved bad);
  (* A near-tie in the measurement does not count as an inversion. *)
  let tie =
    [ mk "w" Mode.NL_T 1.000 1.2; mk "w" Mode.L_T 1.005 1.1 ]
  in
  Alcotest.(check bool) "ties tolerated" true (Validate.trends_preserved tie)

let () =
  Alcotest.run "tca_model"
    [
      ( "mode",
        [
          Alcotest.test_case "all" `Quick test_mode_all;
          Alcotest.test_case "predicates" `Quick test_mode_predicates;
          Alcotest.test_case "string roundtrip" `Quick test_mode_string_roundtrip;
          Alcotest.test_case "compare" `Quick test_mode_compare;
          Alcotest.test_case "hardware text" `Quick test_mode_hardware;
        ] );
      ( "params",
        [
          Alcotest.test_case "core validation" `Quick test_core_validation;
          Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
          Alcotest.test_case "granularity" `Quick test_granularity;
          Alcotest.test_case "scenario_of_granularity" `Quick test_scenario_of_granularity;
          Alcotest.test_case "glossary" `Quick test_glossary;
        ] );
      ( "equations",
        [
          Alcotest.test_case "interval times" `Quick test_equations_times;
          Alcotest.test_case "mode times (4)(5)(7)(9)" `Quick test_equations_mode_times;
          Alcotest.test_case "speedups" `Quick test_equations_speedups;
          Alcotest.test_case "latency variant" `Quick test_equations_latency_variant;
          Alcotest.test_case "v = 0" `Quick test_equations_v_zero;
          Alcotest.test_case "best mode" `Quick test_best_mode;
          Alcotest.test_case "ideal speedup" `Quick test_ideal_speedup;
          prop_mode_ordering;
          prop_speedup_positive;
          prop_l_t_bounded_by_a_plus_1;
          prop_best_mode_is_max;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "zero cost reduces to eqs. (4)-(9)" `Quick
            test_config_zero_reduces_to_baseline;
          Alcotest.test_case "(T1)-(T3) pinned values" `Quick
            test_config_terms_pinned;
          Alcotest.test_case "composed single-unit reduction" `Quick
            test_composed_config_reduction;
          Alcotest.test_case "break-even crossing" `Quick
            test_config_break_even;
          prop_config_terms;
        ] );
      ( "composition",
        [
          Alcotest.test_case "validation" `Quick test_composition_validation;
          Alcotest.test_case "reduces to single unit" `Quick
            test_composed_reduces_to_single_unit;
          prop_composed_reduction;
          Alcotest.test_case "split invariance" `Quick
            test_composed_split_invariance;
          Alcotest.test_case "chained contention" `Quick
            test_composed_chained_contention;
          Alcotest.test_case "v = 0" `Quick test_composed_v_zero;
          Alcotest.test_case "best mode" `Quick test_composed_best_mode;
        ] );
      ("presets", [ Alcotest.test_case "values" `Quick test_presets ]);
      ( "granularity",
        [
          Alcotest.test_case "markers" `Quick test_markers;
          Alcotest.test_case "series" `Quick test_granularity_series;
          Alcotest.test_case "Amdahl convergence" `Quick test_granularity_amdahl_convergence;
          Alcotest.test_case "NL_NT crossover" `Quick test_crossover;
          Alcotest.test_case "L_T no crossover" `Quick test_crossover_none_for_l_t;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "ideal peaks" `Quick test_ideal_peaks;
          Alcotest.test_case "peak matches theory" `Quick test_concurrency_peak_matches_theory;
          Alcotest.test_case "coverage zero" `Quick test_coverage_zero;
          Alcotest.test_case "peak empty" `Quick test_peak_empty;
          Alcotest.test_case "local maxima" `Quick test_local_maxima;
        ] );
      ( "grid",
        [
          Alcotest.test_case "compute" `Quick test_grid_compute;
          Alcotest.test_case "slowdown fraction" `Quick test_grid_slowdown_fraction;
          Alcotest.test_case "accelerator curve" `Quick test_grid_accelerator_curve;
          Alcotest.test_case "empty axis" `Quick test_grid_empty_axis;
          Alcotest.test_case "clean sweep has no failures" `Quick
            test_grid_no_failures_on_clean_sweep;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "delta domain" `Quick test_sensitivity_delta_domain;
        ] );
      ( "partial",
        [
          Alcotest.test_case "endpoints" `Quick test_partial_endpoints;
          Alcotest.test_case "monotone" `Quick test_partial_monotone;
          Alcotest.test_case "invalid p" `Quick test_partial_invalid;
          Alcotest.test_case "required confidence" `Quick test_required_confidence;
        ] );
      ( "validate",
        [
          Alcotest.test_case "error" `Quick test_validate_error;
          Alcotest.test_case "summarize" `Quick test_validate_summarize;
          Alcotest.test_case "trends" `Quick test_trends_preserved;
        ] );
    ]
