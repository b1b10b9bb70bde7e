type stall_breakdown = {
  rob_full : int;
  iq_full : int;
  lsq_full : int;
  serialize : int;
  redirect : int;
  drained : int;
}

type unit_stats = {
  unit_id : int;
  invocations : int;
  busy_cycles : int;
  wait_for_head_cycles : int;
  serialize_stall_cycles : int;
}

type t = {
  cycles : int;
  committed : int;
  ipc : float;
  branches : int;
  mispredicts : int;
  l1 : Mem_hier.level_stats;
  l2 : Mem_hier.level_stats option;
  accel_invocations : int;
  accel_busy_cycles : int;
  accel_wait_for_head_cycles : int;
  avg_rob_occupancy : float;
  avg_rob_at_accel_dispatch : float;
  dtlb : Mem_hier.level_stats option;
  stalls : stall_breakdown;
  config_stall_cycles : int;
  config_queue_stall_cycles : int;
  per_unit : unit_stats list;
}

let make ~cycles ~committed ~branches ~mispredicts ~hier ~dtlb ~occupancy_sum
    ~occupancy_at_accel_sum ~stalls ~config_stall_cycles
    ~config_queue_stall_cycles units =
  let sum f = List.fold_left (fun acc u -> acc + f u) 0 units in
  let accel_invocations = sum (fun u -> u.invocations) in
  let ratio num den =
    if den = 0 then 0.0 else float_of_int num /. float_of_int den
  in
  {
    cycles;
    committed;
    ipc = ratio committed cycles;
    branches;
    mispredicts;
    l1 = Mem_hier.l1_stats hier;
    l2 = Mem_hier.l2_stats hier;
    accel_invocations;
    accel_busy_cycles = sum (fun u -> u.busy_cycles);
    accel_wait_for_head_cycles = sum (fun u -> u.wait_for_head_cycles);
    avg_rob_occupancy = ratio occupancy_sum cycles;
    avg_rob_at_accel_dispatch = ratio occupancy_at_accel_sum accel_invocations;
    dtlb =
      Option.map
        (fun tlb -> { Mem_hier.hits = Tlb.hits tlb; misses = Tlb.misses tlb })
        dtlb;
    stalls;
    config_stall_cycles;
    config_queue_stall_cycles;
    (* Single-unit runs keep the breakdown empty: the aggregate accel
       counters already are that unit's slice, and the golden JSON bytes
       must not change. *)
    per_unit = (match units with [] | [ _ ] -> [] | _ -> units);
  }

let mispredict_rate t =
  if t.branches = 0 then 0.0
  else float_of_int t.mispredicts /. float_of_int t.branches

let level_miss_rate (l : Mem_hier.level_stats) =
  let total = l.Mem_hier.hits + l.Mem_hier.misses in
  if total = 0 then 0.0 else float_of_int l.Mem_hier.misses /. float_of_int total

let l1_miss_rate t = level_miss_rate t.l1
let l2_miss_rate t = Option.map level_miss_rate t.l2
let dtlb_miss_rate t = Option.map level_miss_rate t.dtlb

let total_stalls s =
  s.rob_full + s.iq_full + s.lsq_full + s.serialize + s.redirect + s.drained

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cycles       %d@,committed    %d@,ipc          %.3f@,branches     \
     %d (%.2f%% mispredicted)@,l1           %d hits / %d misses@,accel        \
     %d invocations, %d busy cycles, %d head-wait cycles@,rob          \
     avg %.1f, %.1f at accel dispatch@,stalls       \
     rob=%d iq=%d lsq=%d serialize=%d redirect=%d drained=%d"
    t.cycles t.committed t.ipc t.branches
    (100.0 *. mispredict_rate t)
    t.l1.Mem_hier.hits t.l1.Mem_hier.misses t.accel_invocations
    t.accel_busy_cycles t.accel_wait_for_head_cycles t.avg_rob_occupancy
    t.avg_rob_at_accel_dispatch t.stalls.rob_full
    t.stalls.iq_full t.stalls.lsq_full t.stalls.serialize t.stalls.redirect
    t.stalls.drained;
  (* Shown only when a configuration cost was paid, so config-free
     output is unchanged. *)
  if t.config_stall_cycles > 0 || t.config_queue_stall_cycles > 0 then
    Format.fprintf fmt "@,config       stall=%d queue_stall=%d"
      t.config_stall_cycles t.config_queue_stall_cycles;
  Format.fprintf fmt "@]"

let level_json (l : Mem_hier.level_stats) =
  Tca_util.Json.Obj
    [
      ("hits", Tca_util.Json.Int l.Mem_hier.hits);
      ("misses", Tca_util.Json.Int l.Mem_hier.misses);
      ("miss_rate", Tca_util.Json.Float (level_miss_rate l));
    ]

let unit_stats_to_json u =
  let open Tca_util.Json in
  Obj
    [
      ("unit_id", Int u.unit_id);
      ("invocations", Int u.invocations);
      ("busy_cycles", Int u.busy_cycles);
      ("wait_for_head_cycles", Int u.wait_for_head_cycles);
      ("serialize_stall_cycles", Int u.serialize_stall_cycles);
    ]

let to_json t =
  let open Tca_util.Json in
  let opt_level = function Some l -> level_json l | None -> Null in
  (* The [per_unit] key is emitted only for genuinely multi-unit runs:
     single-unit stats keep the exact bytes the golden pins were
     generated from. *)
  let per_unit =
    match t.per_unit with
    | [] -> []
    | us -> [ ("per_unit", List (List.map unit_stats_to_json us)) ]
  in
  (* Same byte-stability contract for the config-stall counters: the
     [config] object appears only when a configuration cost was actually
     paid, so t_config = 0 runs serialize to the pre-t_config bytes. *)
  let config =
    if t.config_stall_cycles = 0 && t.config_queue_stall_cycles = 0 then []
    else
      [
        ( "config",
          Obj
            [
              ("stall_cycles", Int t.config_stall_cycles);
              ("queue_stall_cycles", Int t.config_queue_stall_cycles);
            ] );
      ]
  in
  Obj
    ([
      ("cycles", Int t.cycles);
      ("committed", Int t.committed);
      ("ipc", Float t.ipc);
      ("branches", Int t.branches);
      ("mispredicts", Int t.mispredicts);
      ("mispredict_rate", Float (mispredict_rate t));
      ("l1", level_json t.l1);
      ("l2", opt_level t.l2);
      ("dtlb", opt_level t.dtlb);
      ("accel_invocations", Int t.accel_invocations);
      ("accel_busy_cycles", Int t.accel_busy_cycles);
      ("accel_wait_for_head_cycles", Int t.accel_wait_for_head_cycles);
      ("avg_rob_occupancy", Float t.avg_rob_occupancy);
      ("avg_rob_at_accel_dispatch", Float t.avg_rob_at_accel_dispatch);
      ( "stalls",
        Obj
          [
            ("rob_full", Int t.stalls.rob_full);
            ("iq_full", Int t.stalls.iq_full);
            ("lsq_full", Int t.stalls.lsq_full);
            ("serialize", Int t.stalls.serialize);
            ("redirect", Int t.stalls.redirect);
            ("drained", Int t.stalls.drained);
            ("total", Int (total_stalls t.stalls));
          ] );
    ]
    @ config @ per_unit)

let of_json j =
  let open Tca_util.Json in
  let invalid message =
    Error (Tca_util.Diag.Invalid { field = "Sim_stats.of_json"; message })
  in
  let int_field o name =
    match Option.bind (member name o) to_int_opt with
    | Some v -> Ok v
    | None -> invalid (Printf.sprintf "missing or non-integer %S" name)
  in
  let float_field o name =
    match Option.bind (member name o) to_float_opt with
    | Some v -> Ok v
    | None -> invalid (Printf.sprintf "missing or non-numeric %S" name)
  in
  let open Tca_util.Diag.Syntax in
  let level_opt o name =
    match member name o with
    | None | Some Null -> Ok None
    | Some l ->
        let* hits = int_field l "hits" in
        let+ misses = int_field l "misses" in
        Some { Mem_hier.hits; misses }
  in
  let* cycles = int_field j "cycles" in
  let* committed = int_field j "committed" in
  let* ipc = float_field j "ipc" in
  let* branches = int_field j "branches" in
  let* mispredicts = int_field j "mispredicts" in
  let* l1 =
    let* l = level_opt j "l1" in
    match l with Some l -> Ok l | None -> invalid "missing \"l1\" level"
  in
  let* l2 = level_opt j "l2" in
  let* dtlb = level_opt j "dtlb" in
  let* accel_invocations = int_field j "accel_invocations" in
  let* accel_busy_cycles = int_field j "accel_busy_cycles" in
  let* accel_wait_for_head_cycles = int_field j "accel_wait_for_head_cycles" in
  let* avg_rob_occupancy = float_field j "avg_rob_occupancy" in
  let* avg_rob_at_accel_dispatch = float_field j "avg_rob_at_accel_dispatch" in
  let* stalls =
    match member "stalls" j with
    | None -> invalid "missing \"stalls\" object"
    | Some s ->
        let* rob_full = int_field s "rob_full" in
        let* iq_full = int_field s "iq_full" in
        let* lsq_full = int_field s "lsq_full" in
        let* serialize = int_field s "serialize" in
        let* redirect = int_field s "redirect" in
        let+ drained = int_field s "drained" in
        { rob_full; iq_full; lsq_full; serialize; redirect; drained }
  in
  let* config_stall_cycles, config_queue_stall_cycles =
    match member "config" j with
    | None | Some Null -> Ok (0, 0)
    | Some c ->
        let* stall = int_field c "stall_cycles" in
        let+ queue = int_field c "queue_stall_cycles" in
        (stall, queue)
  in
  let+ per_unit =
    match member "per_unit" j with
    | None | Some Null -> Ok []
    | Some us -> (
        match to_list_opt us with
        | None -> invalid "\"per_unit\" is not a list"
        | Some us ->
            let rec parse_units = function
              | [] -> Ok []
              | u :: rest ->
                  let* unit_id = int_field u "unit_id" in
                  let* invocations = int_field u "invocations" in
                  let* busy_cycles = int_field u "busy_cycles" in
                  let* wait_for_head_cycles =
                    int_field u "wait_for_head_cycles"
                  in
                  let* serialize_stall_cycles =
                    int_field u "serialize_stall_cycles"
                  in
                  let+ rest = parse_units rest in
                  { unit_id; invocations; busy_cycles; wait_for_head_cycles;
                    serialize_stall_cycles }
                  :: rest
            in
            parse_units us)
  in
  {
    cycles; committed; ipc; branches; mispredicts; l1; l2;
    accel_invocations; accel_busy_cycles; accel_wait_for_head_cycles;
    avg_rob_occupancy; avg_rob_at_accel_dispatch; dtlb; stalls;
    config_stall_cycles; config_queue_stall_cycles; per_unit;
  }

let of_json_string s =
  let open Tca_util.Diag.Syntax in
  let* j = Tca_util.Json.parse s in
  of_json j

let csv_header =
  [
    "cycles"; "committed"; "ipc"; "branches"; "mispredicts";
    "l1_hits"; "l1_misses"; "l2_hits"; "l2_misses"; "dtlb_hits"; "dtlb_misses";
    "accel_invocations"; "accel_busy_cycles"; "accel_wait_for_head_cycles";
    "avg_rob_occupancy"; "avg_rob_at_accel_dispatch";
    "stall_rob"; "stall_iq"; "stall_lsq"; "stall_serialize"; "stall_redirect";
    "stall_drained"; "config_stall"; "config_queue_stall"; "per_unit";
  ]

(* One CSV cell for the whole per-unit breakdown:
   [id:inv:busy:wait:ser] segments joined by '|', empty for single-unit
   runs — keeps the schema flat while staying loss-free. *)
let per_unit_to_cell per_unit =
  String.concat "|"
    (List.map
       (fun u ->
         Printf.sprintf "%d:%d:%d:%d:%d" u.unit_id u.invocations u.busy_cycles
           u.wait_for_head_cycles u.serialize_stall_cycles)
       per_unit)

let per_unit_of_cell cell =
  let invalid message =
    Error (Tca_util.Diag.Parse { field = "Sim_stats.of_csv_row"; input = cell; message })
  in
  if cell = "" then Ok []
  else
    let rec parse_segments = function
      | [] -> Ok []
      | seg :: rest -> (
          match
            String.split_on_char ':' seg |> List.map int_of_string_opt
          with
          | [ Some unit_id; Some invocations; Some busy_cycles;
              Some wait_for_head_cycles; Some serialize_stall_cycles ] ->
              Result.map
                (fun rest ->
                  { unit_id; invocations; busy_cycles; wait_for_head_cycles;
                    serialize_stall_cycles }
                  :: rest)
                (parse_segments rest)
          | _ -> invalid (Printf.sprintf "bad per-unit segment %S" seg))
    in
    parse_segments (String.split_on_char '|' cell)

let csv_row t =
  let opt f = function Some l -> string_of_int (f l) | None -> "" in
  let hits (l : Mem_hier.level_stats) = l.Mem_hier.hits in
  let misses (l : Mem_hier.level_stats) = l.Mem_hier.misses in
  [
    string_of_int t.cycles; string_of_int t.committed;
    Printf.sprintf "%.6f" t.ipc;
    string_of_int t.branches; string_of_int t.mispredicts;
    string_of_int t.l1.Mem_hier.hits; string_of_int t.l1.Mem_hier.misses;
    opt hits t.l2; opt misses t.l2; opt hits t.dtlb; opt misses t.dtlb;
    string_of_int t.accel_invocations; string_of_int t.accel_busy_cycles;
    string_of_int t.accel_wait_for_head_cycles;
    Printf.sprintf "%.6f" t.avg_rob_occupancy;
    Printf.sprintf "%.6f" t.avg_rob_at_accel_dispatch;
    string_of_int t.stalls.rob_full; string_of_int t.stalls.iq_full;
    string_of_int t.stalls.lsq_full; string_of_int t.stalls.serialize;
    string_of_int t.stalls.redirect; string_of_int t.stalls.drained;
    string_of_int t.config_stall_cycles;
    string_of_int t.config_queue_stall_cycles;
    per_unit_to_cell t.per_unit;
  ]

let of_csv_row cells =
  let invalid message =
    Error
      (Tca_util.Diag.Parse
         { field = "Sim_stats.of_csv_row"; input = String.concat "," cells;
           message })
  in
  match cells with
  | [ cycles; committed; ipc; branches; mispredicts; l1_hits; l1_misses;
      l2_hits; l2_misses; dtlb_hits; dtlb_misses; accel_invocations;
      accel_busy_cycles; accel_wait_for_head_cycles; avg_rob_occupancy;
      avg_rob_at_accel_dispatch; stall_rob; stall_iq; stall_lsq;
      stall_serialize; stall_redirect; stall_drained; config_stall;
      config_queue_stall; per_unit ] -> (
      let int name s =
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> invalid (Printf.sprintf "bad integer %S for %s" s name)
      in
      let flt name s =
        match float_of_string_opt s with
        | Some v -> Ok v
        | None -> invalid (Printf.sprintf "bad float %S for %s" s name)
      in
      let level name hits misses =
        match (hits, misses) with
        | "", "" -> Ok None
        | h, m ->
            let open Tca_util.Diag.Syntax in
            let* hits = int (name ^ "_hits") h in
            let+ misses = int (name ^ "_misses") m in
            Some { Mem_hier.hits; misses }
      in
      let open Tca_util.Diag.Syntax in
      let* cycles = int "cycles" cycles in
      let* committed = int "committed" committed in
      let* ipc = flt "ipc" ipc in
      let* branches = int "branches" branches in
      let* mispredicts = int "mispredicts" mispredicts in
      let* l1_hits = int "l1_hits" l1_hits in
      let* l1_misses = int "l1_misses" l1_misses in
      let* l2 = level "l2" l2_hits l2_misses in
      let* dtlb = level "dtlb" dtlb_hits dtlb_misses in
      let* accel_invocations = int "accel_invocations" accel_invocations in
      let* accel_busy_cycles = int "accel_busy_cycles" accel_busy_cycles in
      let* accel_wait_for_head_cycles =
        int "accel_wait_for_head_cycles" accel_wait_for_head_cycles
      in
      let* avg_rob_occupancy = flt "avg_rob_occupancy" avg_rob_occupancy in
      let* avg_rob_at_accel_dispatch =
        flt "avg_rob_at_accel_dispatch" avg_rob_at_accel_dispatch
      in
      let* rob_full = int "stall_rob" stall_rob in
      let* iq_full = int "stall_iq" stall_iq in
      let* lsq_full = int "stall_lsq" stall_lsq in
      let* serialize = int "stall_serialize" stall_serialize in
      let* redirect = int "stall_redirect" stall_redirect in
      let* drained = int "stall_drained" stall_drained in
      let* config_stall_cycles = int "config_stall" config_stall in
      let* config_queue_stall_cycles =
        int "config_queue_stall" config_queue_stall
      in
      let+ per_unit = per_unit_of_cell per_unit in
      {
        cycles; committed; ipc; branches; mispredicts;
        l1 = { Mem_hier.hits = l1_hits; misses = l1_misses };
        l2; dtlb; accel_invocations; accel_busy_cycles;
        accel_wait_for_head_cycles; avg_rob_occupancy;
        avg_rob_at_accel_dispatch;
        stalls = { rob_full; iq_full; lsq_full; serialize; redirect; drained };
        config_stall_cycles; config_queue_stall_cycles; per_unit;
      })
  | _ ->
      invalid
        (Printf.sprintf "expected %d cells, got %d" (List.length csv_header)
           (List.length cells))

let pp_csv fmt t =
  Format.fprintf fmt "%s@.%s@."
    (String.concat "," csv_header)
    (String.concat "," (csv_row t))

let speedup ~baseline ~accelerated =
  if accelerated.cycles = 0 then
    Error
      (Tca_util.Diag.Invalid
         {
           field = "Sim_stats.speedup";
           message = "accelerated run has zero cycles";
         })
  else
    Ok (float_of_int baseline.cycles /. float_of_int accelerated.cycles)

let speedup_exn ~baseline ~accelerated =
  Tca_util.Diag.ok_exn (speedup ~baseline ~accelerated)
