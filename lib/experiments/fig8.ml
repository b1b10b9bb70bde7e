open Tca_model
module A = Tca_engine.Artifact

type series = {
  mode : Mode.t;
  points : (float * float) array;
  peak : float * float;
}

let granularity = 100.0
let accel_factor = 2.0
let accel = Params.Factor accel_factor

let run ?telemetry ?(points = 97) () =
  let core = Presets.hp_core in
  Tca_telemetry.Timing.with_span telemetry "fig8.run" @@ fun () ->
  let coverages = Tca_util.Sweep.linspace_exn 0.0 0.99 points in
  List.map
    (fun mode ->
      let pts =
        Tca_util.Diag.ok_exn
          (Concurrency.coverage_series core ~g:granularity ~accel ~coverages
             mode)
      in
      let peak = Tca_util.Diag.ok_exn (Concurrency.peak pts) in
      { mode; points = pts; peak })
    Mode.all

let ideal_peak =
  ( Tca_util.Diag.ok_exn (Concurrency.ideal_peak_coverage ~accel_factor),
    Tca_util.Diag.ok_exn (Concurrency.ideal_peak_speedup ~accel_factor) )

let nl_t_local_maxima series =
  match List.find_opt (fun s -> Mode.equal s.mode Mode.NL_T) series with
  | None -> []
  | Some s -> Concurrency.local_maxima s.points

let series_table ?(name = "series") ?(every = 1) series =
  let headers = "a" :: List.map (fun s -> Mode.to_string s.mode) series in
  let n = match series with [] -> 0 | s :: _ -> Array.length s.points in
  A.table ~in_text:(every > 1) ~name ~headers
    (List.filter_map
       (fun i ->
         if i mod every <> 0 then None
         else
           Some
             (A.flt ~decimals:2 (fst (List.hd series).points.(i))
             :: List.map (fun s -> A.flt (snd s.points.(i))) series))
       (List.init n Fun.id))

let artifact series =
  let peak_notes =
    List.map
      (fun s ->
        let a, sp = s.peak in
        A.Note
          (Printf.sprintf "peak %-6s: speedup %.3f at a = %.3f"
             (Mode.to_string s.mode) sp a))
      series
  in
  let a_star, s_star = ideal_peak in
  let maxima_notes =
    match nl_t_local_maxima series with
    | [] -> [ A.Note "NL_T: no interior local maximum in this sweep" ]
    | ms ->
        List.map
          (fun (a, sp) ->
            A.Note
              (Printf.sprintf "NL_T local maximum: speedup %.3f at a = %.3f"
                 sp a))
          ms
  in
  A.make ~job:"fig8"
    ~title:
      "Fig. 8: predicted speedup vs % acceleratable for a 100-instruction \
       TCA with A = 2 (HP core)"
    ([
       (* Text shows every 4th row to keep the table readable; the full
          series lives in the CSV/JSON-only table. *)
       A.Table (series_table ~name:"series (every 4th point)" ~every:4 series);
       A.Table (series_table series);
       A.Note "";
     ]
    @ peak_notes
    @ [
        A.Note
          (Printf.sprintf
             "analytic optimum (L_T): speedup A + 1 = %.1f at a = A/(A+1) = \
              %.3f"
             s_star a_star);
      ]
    @ maxima_notes)
