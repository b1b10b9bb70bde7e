open Diag.Syntax

let coverage_series core ~g ~accel ~coverages mode =
  let* _ =
    Diag.in_range ~field:"Concurrency.coverage_series.g" ~lo:1.0 ~hi:infinity g
  in
  let speedup = Equations.speedup core in
  let* cells =
    Array.fold_left
      (fun acc a ->
        let* acc = acc in
        let* pt =
          if a <= 0.0 then Ok (a, 1.0)
          else
            let* s = Params.scenario_of_granularity ~a ~g ~accel () in
            let* sp = speedup s mode in
            Ok (a, sp)
        in
        Ok (pt :: acc))
      (Ok []) coverages
  in
  Ok (Array.of_list (List.rev cells))

let ideal_peak_coverage ~accel_factor =
  let+ accel_factor =
    Diag.positive ~field:"Concurrency.ideal_peak_coverage.accel_factor"
      accel_factor
  in
  accel_factor /. (accel_factor +. 1.0)

let ideal_peak_speedup ~accel_factor =
  let+ accel_factor =
    Diag.positive ~field:"Concurrency.ideal_peak_speedup.accel_factor"
      accel_factor
  in
  accel_factor +. 1.0

let peak series =
  let+ series = Diag.non_empty ~field:"Concurrency.peak" series in
  Array.fold_left
    (fun ((_, by) as best) ((_, y) as cand) -> if y > by then cand else best)
    series.(0) series

let local_maxima series =
  let n = Array.length series in
  let out = ref [] in
  for i = n - 2 downto 1 do
    let _, y_prev = series.(i - 1)
    and ((_, y) as pt) = series.(i)
    and _, y_next = series.(i + 1) in
    if y > y_prev && y > y_next then out := pt :: !out
  done;
  !out
