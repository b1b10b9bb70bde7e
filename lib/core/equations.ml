open Diag.Syntax

type times = {
  t_baseline : float;
  t_accl : float;
  t_non_accl : float;
  t_drain : float;
  t_rob_fill : float;
  t_commit : float;
  config : Params.config_cost;
}

(* The configuration-wall terms (T1)-(T3). (T2) deliberately ignores the
   queue depth: a serial descriptor engine that never idles with backlog
   is a steady-state throughput bound max(base, c); depth only limits
   transient bursts (Assume.audit grades that assumption). *)
let config_overhead (config : Params.config_cost) ~base =
  match config with
  | Params.No_config -> base
  | Params.Sync c -> base +. c (* (T1) *)
  | Params.Queued { t_config = c; _ } -> Float.max base c (* (T2) *)
  | Params.Preprogrammed { t_config = c; invocations = n } ->
      base +. (c /. float_of_int n) (* (T3) *)

(* Extreme-but-valid inputs (v = 1e-300, latency = 1e308, ...) can push an
   intermediate time to infinity; checking the computed record keeps the
   [Ok ==> finite] contract without re-deriving overflow conditions. *)
let check_times t =
  let* _ = Diag.finite ~field:"Equations.t_baseline" t.t_baseline in
  let* _ = Diag.finite ~field:"Equations.t_accl" t.t_accl in
  let* _ = Diag.finite ~field:"Equations.t_non_accl" t.t_non_accl in
  let* _ = Diag.finite ~field:"Equations.t_drain" t.t_drain in
  let* _ = Diag.finite ~field:"Equations.t_rob_fill" t.t_rob_fill in
  let* _ = Diag.finite ~field:"Equations.t_commit" t.t_commit in
  let* _ =
    match t.config with
    | Params.No_config -> Ok 0.0
    | Params.Sync c
    | Params.Queued { t_config = c; _ }
    | Params.Preprogrammed { t_config = c; _ } ->
        Diag.finite ~field:"Equations.t_config" c
  in
  Ok t

let interval_times (core : Params.core) (s : Params.scenario) =
  let* () =
    if s.v <= 0.0 then
      Error
        (Diag.Domain
           { field = "Equations.interval_times.v"; lo = Float.min_float;
             hi = infinity; actual = s.v })
    else Ok ()
  in
  let t_baseline = 1.0 /. (s.v *. core.ipc) in
  let t_accl =
    match s.accel with
    | Params.Factor a_factor -> s.a /. (s.v *. a_factor *. core.ipc)
    | Params.Latency l -> l
  in
  let t_non_accl = (1.0 -. s.a) /. (s.v *. core.ipc) in
  let fit =
    Tca_interval.Power_law.calibrate ~ipc:core.ipc ~window:core.rob_size
      ~beta:core.drain_beta
  in
  let t_drain =
    Tca_interval.Drain.time s.drain ~fit ~window:core.rob_size
      ~interval_instrs:((1.0 -. s.a) /. s.v)
      ~non_accl_time:t_non_accl
  in
  let t_rob_fill = float_of_int core.rob_size /. float_of_int core.issue_width in
  check_times
    { t_baseline; t_accl; t_non_accl; t_drain; t_rob_fill;
      t_commit = core.commit_stall; config = s.config }

let time_of_times (t : times) (mode : Mode.t) =
  let base =
    match mode with
    | Mode.NL_NT ->
        (* eq. (4): drain, execute, and commit twice (once for the drained
           window, once for the TCA itself). *)
        t.t_non_accl +. t.t_accl +. t.t_drain +. (2.0 *. t.t_commit)
    | Mode.L_NT ->
        (* eq. (5): the TCA overlaps leading work; the front end stalls for
           the TCA's execution and commit only. *)
        t.t_non_accl +. t.t_accl +. t.t_commit
    | Mode.NL_T ->
        (* eqs. (6)-(7): trailing instructions flow until the ROB fills;
           the TCA start is delayed by the drain. *)
        let rob_full =
          Float.max 0.0 (t.t_drain +. t.t_accl +. t.t_commit -. t.t_rob_fill)
        in
        Float.max
          (t.t_non_accl +. rob_full)
          (t.t_accl +. t.t_drain +. t.t_commit)
    | Mode.L_T ->
        (* eqs. (8)-(9): full overlap; only a very long TCA that outlives
           the ROB fill stalls the front end. *)
        let rob_full = Float.max 0.0 (t.t_accl -. t.t_rob_fill) in
        Float.max (t.t_non_accl +. rob_full) t.t_accl
  in
  (* (T1)-(T3): identity under No_config, so eqs. (4)-(9) are unchanged. *)
  config_overhead t.config ~base

let mode_time core s mode =
  let* t = interval_times core s in
  Diag.finite ~field:"Equations.mode_time" (time_of_times t mode)

let speedup core s mode =
  if s.Params.v <= 0.0 then Ok 1.0
  else
    let* t = interval_times core s in
    Diag.finite ~field:"Equations.speedup"
      (t.t_baseline /. time_of_times t mode)

let speedup_exn core s mode = Diag.ok_exn (speedup core s mode)

let speedups core s =
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* sp = speedup core s m in
      Ok ((m, sp) :: acc))
    Mode.all (Ok [])

let best_mode core s =
  let* sps = speedups core s in
  match sps with
  | [] -> Error (Diag.Empty_input { field = "Equations.best_mode" })
  | first :: rest ->
      Ok
        (List.fold_left
           (fun ((_, best_s) as best) ((_, cand_s) as cand) ->
             if cand_s > best_s then cand else best)
           first rest)

(* Smallest granularity g = a/v at which the mode breaks even against
   its configuration wall. Speedup is monotone non-decreasing in g for a
   fixed (a, accel, config) — larger invocations amortize every fixed
   per-invocation cost — so one sign change bounds the crossing and a
   geometric bisection (g spans decades) pins it down. *)
let config_break_even ?(hi = 1e9) (core : Params.core) ~a ~accel ~config mode =
  let speedup_at g =
    let* s = Params.scenario_of_granularity ~config ~a ~g ~accel () in
    speedup core s mode
  in
  let* hi =
    Diag.in_range ~field:"Equations.config_break_even.hi" ~lo:1.0 ~hi:infinity
      hi
  in
  let* s_lo = speedup_at 1.0 in
  if s_lo >= 1.0 then Ok (Some 1.0)
  else
    let* s_hi = speedup_at hi in
    if s_hi < 1.0 then Ok None
    else
      let rec bisect lo hi n =
        if n = 0 || hi -. lo <= 1e-6 *. hi then Ok (Some hi)
        else
          let mid = Float.sqrt (lo *. hi) in
          let* s_mid = speedup_at mid in
          if s_mid >= 1.0 then bisect lo mid (n - 1) else bisect mid hi (n - 1)
      in
      bisect 1.0 hi 100

(* --- multi-unit composition ------------------------------------------

   The composed rule works per *instruction* instead of per interval:
   with N units there is no longer a single "interval containing one
   invocation", so every term of eqs. (4)-(9) is multiplied through by
   its unit's invocation rate v_i and summed. Dividing the whole-program
   times by the instruction count gives the per-instruction forms below;
   at N = 1 (chained = 0, shared port) each mode time is exactly v times
   the corresponding single-unit interval time, so speedups reduce to
   eqs. (4)-(9) — a property the test suite pins. *)

type composed_times = {
  c_baseline : float;
  c_non_accl : float;
  c_accl_total : float;
  c_drain : float;
  c_rob_fill : float;
  c_commit : float;
  c_v_total : float;
  c_v_drain : float;
  c_contend : float;
  c_unit_terms : (float * float) list;
  c_cfg_add : float;
  c_cfg_floor : float;
}

let check_composed t =
  let* _ = Diag.finite ~field:"Equations.c_baseline" t.c_baseline in
  let* _ = Diag.finite ~field:"Equations.c_non_accl" t.c_non_accl in
  let* _ = Diag.finite ~field:"Equations.c_accl_total" t.c_accl_total in
  let* _ = Diag.finite ~field:"Equations.c_drain" t.c_drain in
  let* _ = Diag.finite ~field:"Equations.c_contend" t.c_contend in
  let* _ = Diag.finite ~field:"Equations.c_cfg_add" t.c_cfg_add in
  let* _ = Diag.finite ~field:"Equations.c_cfg_floor" t.c_cfg_floor in
  let* _ =
    List.fold_left
      (fun acc (_, tl) ->
        let* _ = acc in
        Diag.finite ~field:"Equations.c_unit_terms" tl)
      (Ok 0.0) t.c_unit_terms
  in
  Ok t

let composed_v_total (c : Params.composition) =
  List.fold_left
    (fun acc (u : Params.unit_scenario) -> acc +. u.Params.v)
    0.0 c.Params.units

let composed_times (core : Params.core) (c : Params.composition) =
  let v_total = composed_v_total c in
  let* () =
    if v_total <= 0.0 then
      Error
        (Diag.Domain
           { field = "Equations.composed_times.v_total"; lo = Float.min_float;
             hi = infinity; actual = v_total })
    else Ok ()
  in
  let a_total =
    List.fold_left
      (fun acc (u : Params.unit_scenario) -> acc +. u.Params.a)
      0.0 c.Params.units
  in
  (* Per-invocation execution time of one unit: eq. (2) scaled to a
     single invocation, or the architect's explicit latency. *)
  let unit_latency (u : Params.unit_scenario) =
    match u.Params.accel with
    | Params.Factor f ->
        if u.Params.v <= 0.0 then 0.0
        else u.Params.a /. (u.Params.v *. f *. core.ipc)
    | Params.Latency l -> l
  in
  let c_unit_terms =
    List.map (fun (u : Params.unit_scenario) -> (u.Params.v, unit_latency u))
      c.Params.units
  in
  let c_baseline = 1.0 /. core.ipc in
  let c_non_accl = (1.0 -. a_total) /. core.ipc in
  let c_accl_total =
    List.fold_left (fun acc (v, tl) -> acc +. (v *. tl)) 0.0 c_unit_terms
  in
  let fit =
    Tca_interval.Power_law.calibrate ~ipc:core.ipc ~window:core.rob_size
      ~beta:core.drain_beta
  in
  let c_drain =
    Tca_interval.Drain.time c.Params.drain ~fit ~window:core.rob_size
      ~interval_instrs:((1.0 -. a_total) /. v_total)
      ~non_accl_time:(c_non_accl /. v_total)
  in
  let c_rob_fill = float_of_int core.rob_size /. float_of_int core.issue_width in
  let c_v_drain = (1.0 -. c.Params.chained) *. v_total in
  let c_contend =
    match c.Params.commit_port with
    | Params.Shared -> c.Params.chained *. v_total *. core.commit_stall
    | Params.Private -> 0.0
  in
  (* Per-unit (T1)-(T3): additive mechanisms sum per instruction, each
     queued descriptor engine is an independent throughput floor of
     which only the busiest binds. *)
  let c_cfg_add, c_cfg_floor =
    List.fold_left
      (fun (add, floor) (u : Params.unit_scenario) ->
        match u.Params.config with
        | Params.No_config -> (add, floor)
        | Params.Sync cfg -> (add +. (u.Params.v *. cfg), floor)
        | Params.Queued { t_config = cfg; _ } ->
            (add, Float.max floor (u.Params.v *. cfg))
        | Params.Preprogrammed { t_config = cfg; invocations = n } ->
            (add +. (u.Params.v *. cfg /. float_of_int n), floor))
      (0.0, 0.0) c.Params.units
  in
  check_composed
    { c_baseline; c_non_accl; c_accl_total; c_drain; c_rob_fill;
      c_commit = core.commit_stall; c_v_total = v_total; c_v_drain; c_contend;
      c_unit_terms; c_cfg_add; c_cfg_floor }

let composed_time_of_times (t : composed_times) (mode : Mode.t) =
  (* Σ_i v_i · max(0, over(t_accl_i)): the per-unit generalization of
     the ROB-full front-end stall of eqs. (6)-(9). *)
  let rob_stall over =
    List.fold_left
      (fun acc (v, tl) -> acc +. (v *. Float.max 0.0 (over tl)))
      0.0 t.c_unit_terms
  in
  (* Composed (T1)-(T3): additive config cost on top of the mode time,
     then the busiest queued descriptor engine as a throughput floor.
     Both are 0 without config costs, leaving the base table intact. *)
  let with_config base =
    Float.max (base +. t.c_cfg_add) t.c_cfg_floor
  in
  with_config
  @@
  match mode with
  | Mode.NL_NT ->
      (* eq. (4) summed over units: every non-chained invocation drains
         and commits its own window, every invocation commits itself. *)
      t.c_non_accl +. t.c_accl_total
      +. (t.c_v_drain *. (t.c_drain +. t.c_commit))
      +. (t.c_v_total *. t.c_commit)
      +. t.c_contend
  | Mode.L_NT ->
      (* eq. (5) summed: leading work overlaps every drain. *)
      t.c_non_accl +. t.c_accl_total
      +. (t.c_v_total *. t.c_commit)
      +. t.c_contend
  | Mode.NL_T ->
      (* eqs. (6)-(7) summed: each unit's invocations stall the front
         end only past their own ROB refill. *)
      let rob_full =
        rob_stall (fun tl -> t.c_drain +. tl +. t.c_commit -. t.c_rob_fill)
      in
      Float.max
        (t.c_non_accl +. rob_full)
        (t.c_accl_total
        +. (t.c_v_drain *. t.c_drain)
        +. (t.c_v_total *. t.c_commit))
      +. t.c_contend
  | Mode.L_T ->
      (* eqs. (8)-(9) summed. *)
      let rob_full = rob_stall (fun tl -> tl -. t.c_rob_fill) in
      Float.max (t.c_non_accl +. rob_full) t.c_accl_total +. t.c_contend

let composed_speedup core c mode =
  if composed_v_total c <= 0.0 then Ok 1.0
  else
    let* t = composed_times core c in
    Diag.finite ~field:"Equations.composed_speedup"
      (t.c_baseline /. composed_time_of_times t mode)

let composed_speedups core c =
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* sp = composed_speedup core c m in
      Ok ((m, sp) :: acc))
    Mode.all (Ok [])

let composed_best_mode core c =
  let* sps = composed_speedups core c in
  match sps with
  | [] -> Error (Diag.Empty_input { field = "Equations.composed_best_mode" })
  | first :: rest ->
      Ok
        (List.fold_left
           (fun ((_, best_s) as best) ((_, cand_s) as cand) ->
             if cand_s > best_s then cand else best)
           first rest)

let ideal_speedup core s =
  if s.Params.v <= 0.0 then Ok 1.0
  else
    let* t = interval_times core s in
    Diag.finite ~field:"Equations.ideal_speedup"
      (t.t_baseline /. (t.t_non_accl +. t.t_accl))
