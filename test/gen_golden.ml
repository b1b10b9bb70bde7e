(* Regenerates test/golden/<workload>.golden — the pinned
   [Sim_stats.to_json] of the baseline and all four coupling runs for a
   small instance of each bundled workload family, produced by the
   reference (pre-optimization) pipeline semantics. The golden test in
   [test_uarch.ml] asserts both the optimized and the reference pipeline
   reproduce these bytes exactly.

   It also writes test/golden/pairs.golden, which pins the generators
   themselves (see the same test).

   Run from the repository root:

     dune exec test/gen_golden.exe -- test/golden

   Only rerun this when a deliberate semantic change to the simulator is
   being made; the whole point of the files is to fail the build when
   the stats drift by accident. *)

open Tca_uarch

let lines_of_pair (pair : Tca_workloads.Meta.pair) =
  let cfg = Config.hp () in
  let cmp =
    Simulator.compare_modes_exn ~cfg ~baseline:pair.Tca_workloads.Meta.baseline
      ~accelerated:pair.Tca_workloads.Meta.accelerated ()
  in
  let line label stats =
    Printf.sprintf "%s\t%s" label
      (Tca_util.Json.to_string (Sim_stats.to_json stats))
  in
  line "baseline" cmp.Simulator.baseline
  :: List.map
       (fun (r : Simulator.mode_result) ->
         line (Config.coupling_name r.Simulator.coupling) r.Simulator.stats)
       cmp.Simulator.modes

let trace_md5 trace =
  let path = Filename.temp_file "tca-golden" ".trace" in
  Out_channel.with_open_bin path (fun oc -> Trace.to_channel oc trace);
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  digest

let pair_line (name, (pair : Tca_workloads.Meta.pair)) =
  Format.asprintf "%s\t%s\t%s\t%a" name
    (trace_md5 pair.Tca_workloads.Meta.baseline)
    (trace_md5 pair.Tca_workloads.Meta.accelerated)
    Tca_workloads.Meta.pp pair.Tca_workloads.Meta.meta

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let golden = Tca_experiments.Exp_common.golden_pairs () in
  let multi =
    List.map
      (fun k ->
        let open Tca_workloads.Multi_tca in
        (kind_name k, (generate (config k)).pair))
      Tca_workloads.Multi_tca.all_kinds
  in
  List.iter
    (fun (name, lines) ->
      let path = Filename.concat dir (name ^ ".golden") in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    (List.map (fun (name, pair) -> (name, lines_of_pair pair)) golden
    @ [ ("pairs", List.map pair_line (golden @ multi)) ])
