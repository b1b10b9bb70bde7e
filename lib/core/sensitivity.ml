open Diag.Syntax

type parameter =
  | Ipc
  | Rob_size
  | Issue_width
  | Commit_stall
  | Coverage
  | Frequency
  | Acceleration

let all_parameters =
  [ Ipc; Rob_size; Issue_width; Commit_stall; Coverage; Frequency; Acceleration ]

let parameter_name = function
  | Ipc -> "IPC"
  | Rob_size -> "s_ROB"
  | Issue_width -> "w_issue"
  | Commit_stall -> "t_commit"
  | Coverage -> "a"
  | Frequency -> "v"
  | Acceleration -> "A / latency"

type swing = {
  parameter : parameter;
  mode : Mode.t;
  low : float;
  high : float;
  magnitude : float;
}

let clamp lo hi x = Float.max lo (Float.min hi x)

let perturb (core : Params.core) (s : Params.scenario) param factor =
  match param with
  | Ipc ->
      let+ c =
        Params.core ~ipc:(core.Params.ipc *. factor)
          ~rob_size:core.Params.rob_size ~issue_width:core.Params.issue_width
          ~commit_stall:core.Params.commit_stall
          ~drain_beta:core.Params.drain_beta ()
      in
      (c, s)
  | Rob_size ->
      let+ c =
        Params.core ~ipc:core.Params.ipc
          ~rob_size:
            (max 1 (int_of_float (float_of_int core.Params.rob_size *. factor)))
          ~issue_width:core.Params.issue_width
          ~commit_stall:core.Params.commit_stall
          ~drain_beta:core.Params.drain_beta ()
      in
      (c, s)
  | Issue_width ->
      let+ c =
        Params.core ~ipc:core.Params.ipc ~rob_size:core.Params.rob_size
          ~issue_width:
            (max 1
               (int_of_float (float_of_int core.Params.issue_width *. factor)))
          ~commit_stall:core.Params.commit_stall
          ~drain_beta:core.Params.drain_beta ()
      in
      (c, s)
  | Commit_stall ->
      let+ c =
        Params.core ~ipc:core.Params.ipc ~rob_size:core.Params.rob_size
          ~issue_width:core.Params.issue_width
          ~commit_stall:(core.Params.commit_stall *. factor)
          ~drain_beta:core.Params.drain_beta ()
      in
      (c, s)
  | Coverage ->
      let a = clamp s.Params.v 1.0 (s.Params.a *. factor) in
      let+ s' =
        Params.scenario ~drain:s.Params.drain ~config:s.Params.config ~a
          ~v:s.Params.v ~accel:s.Params.accel ()
      in
      (core, s')
  | Frequency ->
      let v = clamp 0.0 s.Params.a (s.Params.v *. factor) in
      let+ s' =
        Params.scenario ~drain:s.Params.drain ~config:s.Params.config
          ~a:s.Params.a ~v ~accel:s.Params.accel ()
      in
      (core, s')
  | Acceleration ->
      let accel =
        match s.Params.accel with
        | Params.Factor f -> Params.Factor (f *. factor)
        | Params.Latency l ->
            (* Scaling "acceleration" up means a shorter latency. *)
            Params.Latency (l /. factor)
      in
      let+ s' =
        Params.scenario ~drain:s.Params.drain ~config:s.Params.config
          ~a:s.Params.a ~v:s.Params.v ~accel ()
      in
      (core, s')

(* Every input is scaled by [1 - delta] and [1 + delta]: +-20%. *)
let delta = 0.2

let swings ?telemetry ?(par = Tca_util.Parmap.serial) core s mode =
  Tca_telemetry.Timing.with_span telemetry "sensitivity.swings"
    ~args:[ ("mode", Tca_util.Json.String (Mode.to_string mode)) ]
  @@ fun () ->
  let eval param =
    let* core_lo, s_lo = perturb core s param (1.0 -. delta) in
    let* core_hi, s_hi = perturb core s param (1.0 +. delta) in
    let* low = Equations.speedup core_lo s_lo mode in
    let* high = Equations.speedup core_hi s_hi mode in
    Ok
      { parameter = param; mode; low; high;
        magnitude = Float.abs (high -. low) }
  in
  (* Evaluate every parameter (possibly in parallel), then sequence the
     results in parameter order — the surfaced error, if any, is the
     same first one a serial fold would hit. *)
  let evaluated = Tca_util.Parmap.map_list par eval all_parameters in
  let* unsorted =
    List.fold_right
      (fun r acc ->
        let* acc = acc in
        let* sw = r in
        Ok (sw :: acc))
      evaluated (Ok [])
  in
  Ok (List.sort (fun a b -> compare b.magnitude a.magnitude) unsorted)

let decision_stable ?telemetry core s =
  Tca_telemetry.Timing.with_span telemetry "sensitivity.decision_stable"
  @@ fun () ->
  let* nominal, _ = Equations.best_mode core s in
  List.fold_left
    (fun acc param ->
      let* acc = acc in
      List.fold_left
        (fun acc factor ->
          let* acc = acc in
          if not acc then Ok false
          else
            let* c, sc = perturb core s param factor in
            let* best, _ = Equations.best_mode c sc in
            Ok (Mode.equal best nominal))
        (Ok acc)
        [ 1.0 -. delta; 1.0 +. delta ])
    (Ok true) all_parameters

let headers = [ "parameter"; "mode"; "-delta"; "+delta"; "swing" ]

let rows swings_list =
  List.map
    (fun sw ->
      [
        parameter_name sw.parameter;
        Mode.to_string sw.mode;
        Tca_util.Table.float_cell sw.low;
        Tca_util.Table.float_cell sw.high;
        Tca_util.Table.float_cell sw.magnitude;
      ])
    swings_list
