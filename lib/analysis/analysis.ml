open Tca_uarch

type report = {
  counts : Trace.counts;
  dag_stats : Dag.stats;
  bounds : Bounds.t;
  findings : Finding.t list;
  derived : Derive.t option;
  derive_error : string option;
}

let analyze ?baseline ?config_break_even ~cfg trace =
  let instrs = trace.Trace.instrs in
  (* Analyze at the configured machine's granularity, not the default:
     footprint aliasing is defined per L1 line. *)
  let line_bytes = cfg.Config.mem.Mem_hier.l1.Cache.line_bytes in
  let dag = Dag.build ~line_bytes instrs in
  let derived, derive_error =
    match baseline with
    | None -> (None, None)
    | Some b -> (
        match Derive.of_pair ~cfg ~baseline:b ~accelerated:trace with
        | Ok d -> (Some d, None)
        | Error diag -> (None, Some (Tca_util.Diag.to_string diag)))
  in
  {
    counts = Trace.counts trace;
    dag_stats = Dag.stats dag;
    bounds = Bounds.compute ~dag cfg instrs;
    findings = Lint.run ~line_bytes ?config_break_even instrs;
    derived;
    derive_error;
  }

let bounds ~cfg trace = Bounds.compute cfg trace.Trace.instrs

let finding_counts findings =
  let open Tca_util.Json in
  let count s =
    List.length (List.filter (fun f -> Finding.severity f = s) findings)
  in
  Obj
    (List.map
       (fun s -> (Finding.severity_name s, Int (count s)))
       [ Finding.Error; Finding.Warning; Finding.Info ])

let report_to_json r =
  let open Tca_util.Json in
  Obj
    [
      ("counts", Trace.counts_to_json r.counts);
      ("finding_counts", finding_counts r.findings);
      ("dag", Dag.stats_to_json r.dag_stats);
      ("bounds", Bounds.to_json r.bounds);
      ("findings", Lint.findings_to_json r.findings);
      ("derived",
       match r.derived with Some d -> Derive.to_json d | None -> Null);
      ("derive_error",
       match r.derive_error with Some e -> String e | None -> Null);
    ]
