open Tca_model
module A = Tca_engine.Artifact

type row = { g : float; speedups : (Mode.t * float) list }

let coverage = 0.3
let accel = Params.Factor 3.0

let run ?telemetry ?(points = 33) () =
  Tca_telemetry.Timing.with_span telemetry "fig2.run" @@ fun () ->
  let gs = Tca_util.Sweep.logspace_exn 10.0 1.0e9 points in
  let series = Granularity.series Presets.arm_a72 ~a:coverage ~accel ~gs in
  Array.to_list
    (Array.mapi
       (fun i g ->
         {
           g;
           speedups =
             List.map (fun (mode, pts) -> (mode, snd pts.(i))) series;
         })
       gs)

let series_table rows =
  A.table ~name:"speedup"
    ~headers:("granularity" :: List.map Mode.to_string Mode.all)
    (List.map
       (fun r ->
         A.sci r.g
         :: List.map (fun m -> A.flt (List.assoc m r.speedups)) Mode.all)
       rows)

let markers_table =
  A.table ~name:"markers" ~headers:[ "accelerator"; "granularity" ]
    (List.map
       (fun (m : Granularity.marker) ->
         [ A.text m.Granularity.name; A.sci m.Granularity.granularity ])
       Granularity.reference_markers)

let artifact rows =
  A.make ~job:"fig2"
    ~title:
      "Fig. 2: speedup vs accelerator granularity (ARM A72-like core, a = \
       30%, A = 3)"
    [
      A.Table (series_table rows);
      A.Note "";
      A.Note "Reference accelerators (estimated granularities):";
      A.Table markers_table;
    ]
