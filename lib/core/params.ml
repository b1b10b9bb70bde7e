open Diag.Syntax

type core = {
  ipc : float;
  rob_size : int;
  issue_width : int;
  commit_stall : float;
  drain_beta : float;
}

type accel_time = Factor of float | Latency of float

type config_cost =
  | No_config
  | Sync of float
  | Queued of { t_config : float; depth : int }
  | Preprogrammed of { t_config : float; invocations : int }

(* Declared before [scenario] so [scenario]'s labels, defined last,
   remain the unqualified default everywhere else. *)
type commit_port = Shared | Private

type unit_scenario = {
  a : float;
  v : float;
  accel : accel_time;
  config : config_cost;
}

type composition = {
  units : unit_scenario list;
  chained : float;
  commit_port : commit_port;
  drain : Tca_interval.Drain.spec;
}

type scenario = {
  a : float;
  v : float;
  accel : accel_time;
  drain : Tca_interval.Drain.spec;
  config : config_cost;
}

let core ?(commit_stall = 5.0) ?(drain_beta = 2.0) ~ipc ~rob_size ~issue_width
    () =
  let* ipc = Diag.positive ~field:"Params.core.ipc" ipc in
  let* rob_size = Diag.positive_int ~field:"Params.core.rob_size" rob_size in
  let* issue_width =
    Diag.positive_int ~field:"Params.core.issue_width" issue_width
  in
  let* commit_stall =
    Diag.non_negative ~field:"Params.core.commit_stall" commit_stall
  in
  let* drain_beta = Diag.positive ~field:"Params.core.drain_beta" drain_beta in
  Ok { ipc; rob_size; issue_width; commit_stall; drain_beta }

(* The per-point checks, over [Diag]'s option-returning checks: each
   returns the first failing field's diagnostic, or [None], so a point
   that passes allocates nothing. *)
let coverage_error ~a_field ~v_field ~g_field ~a ~v =
  match Diag.range_error ~field:a_field ~lo:0.0 ~hi:1.0 a with
  | Some _ as e -> e
  | None -> (
      match Diag.non_negative_error ~field:v_field v with
      | Some _ as e -> e
      | None ->
          if v > 0.0 && a < v then
            Some
              (Diag.Domain
                 { field = g_field; lo = 1.0; hi = infinity; actual = a /. v })
          else None)

let accel_error = function
  | Factor f -> Diag.positive_error ~field:"Params.scenario.accel factor" f
  | Latency l ->
      Diag.non_negative_error ~field:"Params.scenario.accel latency" l

let drain_error = function
  | Tca_interval.Drain.Fixed t ->
      Diag.non_negative_error ~field:"Params.scenario.drain" t
  | Tca_interval.Drain.Auto | Tca_interval.Drain.Refill_aware -> None

let config_error = function
  | No_config -> None
  | Sync t -> Diag.non_negative_error ~field:"Params.config Sync t_config" t
  | Queued { t_config; depth } -> (
      match
        Diag.non_negative_error ~field:"Params.config Queued t_config" t_config
      with
      | None ->
          Diag.at_least_error ~field:"Params.config Queued depth" ~min:1 depth
      | e -> e)
  | Preprogrammed { t_config; invocations } -> (
      match
        Diag.non_negative_error
          ~field:"Params.config Preprogrammed t_config" t_config
      with
      | None ->
          Diag.at_least_error
            ~field:"Params.config Preprogrammed invocations" ~min:1
            invocations
      | e -> e)

let validate_config c = Diag.checked c (config_error c)

let scenario ?(drain = Tca_interval.Drain.Auto) ?(config = No_config) ~a ~v
    ~accel () =
  Diag.checked { a; v; accel; drain; config }
    (match
       coverage_error ~a_field:"Params.scenario.a" ~v_field:"Params.scenario.v"
         ~g_field:"Params.scenario granularity a/v" ~a ~v
     with
    | Some _ as e -> e
    | None -> (
        match accel_error accel with
        | Some _ as e -> e
        | None -> (
            match drain_error drain with
            | Some _ as e -> e
            | None -> config_error config)))

let scenario_exn ?drain ?config ~a ~v ~accel () =
  Diag.ok_exn (scenario ?drain ?config ~a ~v ~accel ())

let unit_scenario ?(config = No_config) ~a ~v ~accel () =
  Diag.checked ({ a; v; accel; config } : unit_scenario)
    (match
       coverage_error ~a_field:"Params.unit_scenario.a"
         ~v_field:"Params.unit_scenario.v"
         ~g_field:"Params.unit_scenario granularity a/v" ~a ~v
     with
    | Some _ as e -> e
    | None -> (
        match accel_error accel with
        | Some _ as e -> e
        | None -> config_error config))

let unit_scenario_exn ?config ~a ~v ~accel () =
  Diag.ok_exn (unit_scenario ?config ~a ~v ~accel ())

let composition ?(drain = Tca_interval.Drain.Auto) ?(chained = 0.0)
    ?(commit_port = Shared) ~units () =
  let* () =
    if units = [] then
      Error (Diag.Empty_input { field = "Params.composition.units" })
    else Ok ()
  in
  let* units =
    List.fold_right
      (fun (u : unit_scenario) acc ->
        let* acc = acc in
        let* u = unit_scenario ~config:u.config ~a:u.a ~v:u.v ~accel:u.accel () in
        Ok (u :: acc))
      units (Ok [])
  in
  let a_total =
    List.fold_left (fun acc (u : unit_scenario) -> acc +. u.a) 0.0 units
  in
  let* () =
    if a_total > 1.0 then
      Error
        (Diag.Domain
           { field = "Params.composition total a"; lo = 0.0; hi = 1.0;
             actual = a_total })
    else Ok ()
  in
  let* chained =
    Diag.in_range ~field:"Params.composition.chained" ~lo:0.0 ~hi:1.0 chained
  in
  Diag.checked ({ units; chained; commit_port; drain } : composition)
    (drain_error drain)

let composition_exn ?drain ?chained ?commit_port ~units () =
  Diag.ok_exn (composition ?drain ?chained ?commit_port ~units ())

let composition_of_scenario (s : scenario) : composition =
  {
    units =
      [
        ({ a = s.a; v = s.v; accel = s.accel; config = s.config }
          : unit_scenario);
      ];
    chained = 0.0;
    commit_port = Shared;
    drain = s.drain;
  }

let commit_port_name = function Shared -> "shared" | Private -> "private"

let granularity s =
  if s.v = 0.0 then
    Error (Diag.Invalid { field = "Params.granularity"; message = "v = 0" })
  else Ok (s.a /. s.v)

let scenario_of_granularity ?drain ?config ~a ~g ~accel () =
  match
    Diag.range_error ~field:"Params.scenario_of_granularity.g" ~lo:1.0
      ~hi:infinity g
  with
  | Some d -> Error d
  | None -> scenario ?drain ?config ~a ~v:(a /. g) ~accel ()

let pp_core fmt c =
  Format.fprintf fmt
    "{ ipc = %.3f; rob = %d; issue = %d; t_commit = %.1f; beta = %.1f }" c.ipc
    c.rob_size c.issue_width c.commit_stall c.drain_beta

let pp_accel fmt = function
  | Factor f -> Format.fprintf fmt "A = %.2fx" f
  | Latency l -> Format.fprintf fmt "latency = %.1f cycles" l

(* Printed only when a configuration cost is actually modeled, so
   default-No_config output stays byte-identical to the pre-t_config
   renderings. *)
let pp_config fmt = function
  | No_config -> ()
  | Sync t -> Format.fprintf fmt "; config = sync %.1f" t
  | Queued { t_config; depth } ->
      Format.fprintf fmt "; config = queued %.1f (depth %d)" t_config depth
  | Preprogrammed { t_config; invocations } ->
      Format.fprintf fmt "; config = preprog %.1f / %d invocations" t_config
        invocations

let pp_scenario fmt s =
  Format.fprintf fmt "{ a = %.4f; v = %.6f; %a; drain = %s%a }" s.a s.v
    pp_accel s.accel
    (match s.drain with
    | Tca_interval.Drain.Auto -> "auto"
    | Tca_interval.Drain.Refill_aware -> "refill-aware"
    | Tca_interval.Drain.Fixed t -> Printf.sprintf "%.1f" t)
    pp_config s.config

let pp_composition fmt (c : composition) =
  Format.fprintf fmt "{ units = [";
  List.iteri
    (fun i (u : unit_scenario) ->
      Format.fprintf fmt "%s{ a = %.4f; v = %.6f; %a%a }"
        (if i = 0 then " " else "; ")
        u.a u.v pp_accel u.accel pp_config u.config)
    c.units;
  Format.fprintf fmt " ]; chained = %.2f; commit_port = %s }" c.chained
    (commit_port_name c.commit_port)

let glossary =
  [
    ("a", "% acceleratable code");
    ("v", "invocation frequency (invocations / instruction)");
    ("IPC", "instructions / cycle of the baseline program");
    ("A", "acceleration factor");
    ("s_ROB", "size of the reorder buffer");
    ("w_issue", "issue (dispatch) width");
    ("t_commit", "commit stall (back-end pipeline latency)");
    ("t_config", "per-invocation configuration cost (sync/queued/preprog)");
  ]
