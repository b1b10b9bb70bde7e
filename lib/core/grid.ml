open Diag.Syntax

type t = {
  freqs : float array;
  coverages : float array;
  cells : float array array;
  failures : ((int * int) * Diag.t) list;
}

let compute ?telemetry ?(par = Tca_util.Parmap.serial) core ~accel ~freqs
    ~coverages mode =
  let* _ = Diag.non_empty ~field:"Grid.compute.freqs" freqs in
  let* _ = Diag.non_empty ~field:"Grid.compute.coverages" coverages in
  Tca_telemetry.Timing.with_span telemetry "grid.compute"
    ~args:
      [
        ("rows", Tca_util.Json.Int (Array.length coverages));
        ("cols", Tca_util.Json.Int (Array.length freqs));
        ("mode", Tca_util.Json.String (Mode.to_string mode));
      ]
  @@ fun () ->
  (* One task per row; each returns its cells plus its own failures in
     column order, so the concatenation in row order reproduces the
     serial (row-major) failure order exactly. *)
  let row_task (row, a) =
    let failures = ref [] in
    let cells =
      Array.mapi
        (fun col v ->
          if v <= 0.0 || a <= 0.0 || a < v then Float.nan
          else
            (* Skip-and-record: a bad point poisons one cell, never the
               whole sweep. *)
            match
              let* s = Params.scenario ~a ~v ~accel () in
              Equations.speedup core s mode
            with
            | Ok sp -> sp
            | Error d ->
                failures := ((row, col), d) :: !failures;
                Float.nan)
        freqs
    in
    (cells, List.rev !failures)
  in
  let rows =
    par.Tca_util.Parmap.run row_task (Array.mapi (fun row a -> (row, a)) coverages)
  in
  let cells = Array.map fst rows in
  let failures = List.concat_map snd (Array.to_list rows) in
  Ok { freqs; coverages; cells; failures }

let slowdown_fraction t =
  let feasible = ref 0 and slow = ref 0 in
  Array.iter
    (Array.iter (fun x ->
         if not (Float.is_nan x) then begin
           incr feasible;
           if x < 1.0 then incr slow
         end))
    t.cells;
  if !feasible = 0 then 0.0 else float_of_int !slow /. float_of_int !feasible

let accelerator_curve t ~granularity =
  let* _ =
    Diag.in_range ~field:"Grid.accelerator_curve.granularity" ~lo:1.0
      ~hi:infinity granularity
  in
  let nearest_col v =
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun i f ->
        let d = Float.abs (log f -. log v) in
        if d < !best_d then begin
          best := i;
          best_d := d
        end)
      t.freqs;
    !best
  in
  let cells = ref [] in
  Array.iteri
    (fun row a ->
      let v = a /. granularity in
      if v >= t.freqs.(0) && v <= t.freqs.(Array.length t.freqs - 1) then
        cells := (row, nearest_col v) :: !cells)
    t.coverages;
  Ok (List.rev !cells)
