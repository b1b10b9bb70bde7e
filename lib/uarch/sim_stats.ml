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
  l2 : Mem_hier.level_stats;
  accel_invocations : int;
  accel_busy_cycles : int;
  accel_wait_for_head_cycles : int;
  avg_rob_occupancy : float;
  avg_rob_at_accel_dispatch : float;
  stalls : stall_breakdown;
  config_stall_cycles : int;
  config_queue_stall_cycles : int;
  per_unit : unit_stats list;
}

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

let make ~cycles ~committed ~branches ~mispredicts ~hier ~occupancy_sum
    ~occupancy_at_accel_sum ~stalls ~config_stall_cycles
    ~config_queue_stall_cycles units =
  let sum f = List.fold_left (fun acc u -> acc + f u) 0 units in
  let accel_invocations = sum (fun u -> u.invocations) in
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
    stalls;
    config_stall_cycles;
    config_queue_stall_cycles;
    (* Single-unit runs keep the breakdown empty: the aggregate accel
       counters already are that unit's slice, and the golden JSON bytes
       must not change. *)
    per_unit = (match units with [] | [ _ ] -> [] | _ -> units);
  }

let mispredict_rate t = ratio t.mispredicts t.branches

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
      ( "miss_rate",
        Tca_util.Json.Float (ratio l.Mem_hier.misses (l.hits + l.misses)) );
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
      ("l2", level_json t.l2);
      (* The simulator has no TLB; the key stays so the golden pins and
         perfbench's digests keep hashing the same bytes. *)
      ("dtlb", Null);
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
