open Tca_util.Diag.Syntax

type mode_result = {
  coupling : Config.coupling;
  stats : Sim_stats.t;
  speedup : float;
  partial : Tca_util.Diag.t option;
}

type comparison = {
  baseline : Sim_stats.t;
  baseline_partial : Tca_util.Diag.t option;
  modes : mode_result list;
}

let split_outcome = function
  | Pipeline.Complete stats -> (stats, None)
  | Pipeline.Partial { stats; diag } -> (stats, Some diag)

(* Containment: a raise from one entry — a typed [Diag.Error] escaping a
   convenience call, or any other exception from its run — costs that
   entry its result, never the batch. Without this, a raise inside a
   parallel [Pipeline.run] would tear down all N entries on one poisoned
   trace. *)
let contain i f =
  try f () with
  | Tca_util.Diag.Error d -> Error d
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      Error
        (Tca_util.Diag.Task_failure
           {
             job = Printf.sprintf "run_batch[%d]" i;
             fingerprint = "";
             exn = Printexc.to_string e;
             backtrace = Printexc.raw_backtrace_to_string bt;
           })

let run_batch ?telemetry ?par entries =
  Tca_telemetry.Timing.fan_out ?telemetry ?par
    (fun ~telemetry i ->
      contain i (fun () ->
          let cfg, trace = entries.(i) in
          (* The span lands in the entry's own forked sink, so the merged
             trace carries it at the same position whatever [par] is — on
             the lane of the domain that ran it. *)
          Tca_telemetry.Timing.with_span telemetry "sim.step" (fun () ->
              Pipeline.run ?telemetry cfg trace)))
    (Array.init (Array.length entries) Fun.id)

let compare_modes ?telemetry ?par ~cfg ~baseline ~accelerated () =
  (* The five pipeline runs (baseline + one per coupling) are mutually
     independent, so they form one [run_batch]: each run records into
     its own forked sink, joined back in canonical order (baseline
     first, then [Config.all_couplings] order), so the merged trace is
     the same whatever [par] is. *)
  let couplings = Array.of_list Config.all_couplings in
  let n = 1 + Array.length couplings in
  let results =
    run_batch ?telemetry ?par
      (Array.init n (fun i ->
           if i = 0 then (cfg, baseline)
           else (Config.with_coupling cfg couplings.(i - 1), accelerated)))
  in
  let* base_outcome = results.(0) in
  let base_stats, baseline_partial = split_outcome base_outcome in
  let rec seq i =
    if i >= n then Ok []
    else
      let* outcome = results.(i) in
      let stats, partial = split_outcome outcome in
      let* speedup =
        Sim_stats.speedup ~baseline:base_stats ~accelerated:stats
      in
      let+ rest = seq (i + 1) in
      { coupling = couplings.(i - 1); stats; speedup; partial } :: rest
  in
  let+ modes = seq 1 in
  { baseline = base_stats; baseline_partial; modes }

let compare_modes_exn ?telemetry ?par ~cfg ~baseline ~accelerated () =
  Tca_util.Diag.ok_exn
    (compare_modes ?telemetry ?par ~cfg ~baseline ~accelerated ())
