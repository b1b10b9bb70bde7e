open Tca_model
module A = Tca_engine.Artifact

type map = {
  core_name : string;
  mode : Mode.t;
  grid : Grid.t;
  slowdown_fraction : float;
}

let accel = Params.Factor Tca_workloads.Greendroid.accel_factor

let run ?telemetry ?par ?(cols = 48) ?(rows = 17) () =
  Tca_telemetry.Timing.with_span telemetry "fig7.run" @@ fun () ->
  let freqs = Tca_util.Sweep.logspace_exn 1.0e-6 0.1 cols in
  let coverages = Tca_util.Sweep.linspace_exn 0.05 0.95 rows in
  List.concat_map
    (fun (core_name, core) ->
      List.map
        (fun mode ->
          let grid =
            Tca_util.Diag.ok_exn
              (Grid.compute ?telemetry ?par core ~accel ~freqs ~coverages
                 mode)
          in
          {
            core_name;
            mode;
            grid;
            slowdown_fraction = Grid.slowdown_fraction grid;
          })
        Mode.all)
    [ ("HP", Presets.hp_core); ("LP", Presets.lp_core) ]

let heatmap_of m =
  let g = m.grid in
  (* Row 0 should be the highest coverage, like the paper's y axis. *)
  let nrows = Array.length g.Grid.coverages in
  let values =
    Array.init nrows (fun r -> g.Grid.cells.(nrows - 1 - r))
  in
  let row_labels =
    Array.init nrows (fun r ->
        Printf.sprintf "a=%.2f" g.Grid.coverages.(nrows - 1 - r))
  in
  let col_labels =
    Array.map (fun v -> Printf.sprintf "v=%.0e" v) g.Grid.freqs
  in
  let hm =
    Tca_util.Diag.ok_exn
      (Tca_util.Heatmap.make ~values ~row_labels ~col_labels)
  in
  let flip cells = List.map (fun (r, c) -> (nrows - 1 - r, c)) cells in
  let heap_curve =
    Tca_util.Diag.ok_exn
      (Grid.accelerator_curve g
         ~granularity:Tca_workloads.Greendroid.heap_manager_granularity)
  in
  let gd_curve =
    Tca_util.Diag.ok_exn
      (Grid.accelerator_curve g
         ~granularity:(Tca_workloads.Greendroid.mean_granularity ()))
  in
  let hm = Tca_util.Heatmap.overlay hm (flip heap_curve) 'H' in
  Tca_util.Heatmap.overlay hm (flip gd_curve) 'G'

(* Long-format export of every feasible cell; rendered only in the
   CSV/JSON views (the text view carries the heatmaps as notes). *)
let cells_table maps =
  let rows = ref [] in
  List.iter
    (fun m ->
      let g = m.grid in
      Array.iteri
        (fun r a ->
          Array.iteri
            (fun c v ->
              let speedup = g.Grid.cells.(r).(c) in
              if not (Float.is_nan speedup) then
                rows :=
                  [
                    A.text m.core_name;
                    A.text (Mode.to_string m.mode);
                    A.flt ~decimals:2 a;
                    A.sci v;
                    A.flt speedup;
                  ]
                  :: !rows)
            g.Grid.freqs)
        g.Grid.coverages)
    maps;
  A.table ~in_text:false ~name:"cells"
    ~headers:[ "core"; "mode"; "a"; "v"; "speedup" ]
    (List.rev !rows)

let artifact maps =
  A.make ~job:"fig7"
    ~title:
      "Fig. 7: predicted speedup/slowdown over (invocation frequency x \
       acceleratable fraction), A = 1.5"
    (A.Note
       "Overlays: H = heap-manager TCA locus (g = 53), G = mean GreenDroid \
        function locus"
    :: List.concat_map
         (fun m ->
           let title =
             Printf.sprintf
               "@ %s core, mode %s (slowdown region: %.0f%% of feasible \
                cells)"
               m.core_name (Mode.to_string m.mode)
               (100.0 *. m.slowdown_fraction)
           in
           [
             A.Note "";
             A.Note
               (String.trim (Tca_util.Heatmap.render ~title (heatmap_of m)));
           ])
         maps
    @ [ A.Table (cells_table maps) ])
