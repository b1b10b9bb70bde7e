type coupling = { allow_leading : bool; allow_trailing : bool }

let coupling_nl_nt = { allow_leading = false; allow_trailing = false }
let coupling_l_nt = { allow_leading = true; allow_trailing = false }
let coupling_nl_t = { allow_leading = false; allow_trailing = true }
let coupling_l_t = { allow_leading = true; allow_trailing = true }
let all_couplings = [ coupling_nl_nt; coupling_l_nt; coupling_nl_t; coupling_l_t ]

let coupling_name c =
  match (c.allow_leading, c.allow_trailing) with
  | false, false -> "NL_NT"
  | true, false -> "L_NT"
  | false, true -> "NL_T"
  | true, true -> "L_T"

type tca_occupancy = Pipelined | Exclusive

type latencies = {
  int_alu : int;
  int_mult : int;
  fp_alu : int;
  fp_mult : int;
}

type t = {
  dispatch_width : int;
  issue_width : int;
  commit_width : int;
  rob_size : int;
  iq_size : int;
  lsq_size : int;
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  mem_ports : int;
  frontend_depth : int;
  commit_depth : int;
  latencies : latencies;
  bpred : Bpred.kind;
  mem : Mem_hier.config;
  coupling : coupling;
  tca_occupancy : tca_occupancy;
  tca_units : Tca_unit.t array;
  miss_bandwidth : int option;
  dtlb : Tlb.config option;
  tca_speculate_fraction : float option;
  max_cycles : int option;
}

let default_latencies = { int_alu = 1; int_mult = 3; fp_alu = 3; fp_mult = 4 }

let default_mem =
  Mem_hier.config
    ~l1:(Cache.config ~size_bytes:(32 * 1024) ~assoc:8 ~hit_latency:2 ())
    ~l2:(Cache.config ~size_bytes:(1024 * 1024) ~assoc:16 ~hit_latency:12 ())
    ~mem_latency:100 ()

let hp ?(coupling = coupling_l_t) () =
  {
    dispatch_width = 4;
    issue_width = 4;
    commit_width = 4;
    rob_size = 256;
    iq_size = 256;
    lsq_size = 192;
    int_alu_units = 4;
    int_mult_units = 2;
    fp_units = 2;
    mem_ports = 2;
    frontend_depth = 12;
    commit_depth = 8;
    latencies = default_latencies;
    bpred = Bpred.Tournament 14;
    mem = default_mem;
    coupling;
    tca_occupancy = Pipelined;
    tca_units = [| Tca_unit.default 0 |];
    miss_bandwidth = None;
    dtlb = None;
    tca_speculate_fraction = None;
    max_cycles = None;
  }

let lp ?(coupling = coupling_l_t) () =
  {
    dispatch_width = 2;
    issue_width = 2;
    commit_width = 2;
    rob_size = 64;
    iq_size = 64;
    lsq_size = 48;
    int_alu_units = 2;
    int_mult_units = 1;
    fp_units = 1;
    mem_ports = 1;
    frontend_depth = 6;
    commit_depth = 4;
    latencies = default_latencies;
    bpred = Bpred.Bimodal 12;
    mem = default_mem;
    coupling;
    tca_occupancy = Pipelined;
    tca_units = [| Tca_unit.default 0 |];
    miss_bandwidth = None;
    dtlb = None;
    tca_speculate_fraction = None;
    max_cycles = None;
  }

let a72 ?(coupling = coupling_l_t) () =
  {
    dispatch_width = 3;
    issue_width = 3;
    commit_width = 3;
    rob_size = 128;
    iq_size = 128;
    lsq_size = 96;
    int_alu_units = 2;
    int_mult_units = 1;
    fp_units = 2;
    mem_ports = 2;
    frontend_depth = 10;
    commit_depth = 6;
    latencies = default_latencies;
    bpred = Bpred.Tournament 13;
    mem = default_mem;
    coupling;
    tca_occupancy = Pipelined;
    tca_units = [| Tca_unit.default 0 |];
    miss_bandwidth = None;
    dtlb = None;
    tca_speculate_fraction = None;
    max_cycles = None;
  }

let with_coupling t coupling = { t with coupling }

let accel_latency_estimate t ~reads ~writes ~fresh_lines ~compute =
  let ports = float_of_int t.mem_ports in
  let read_time =
    if reads <= 0.0 then 0.0
    else
      let miss_extra =
        match t.mem.Mem_hier.l2 with
        | Some l2 -> l2.Cache.hit_latency
        | None -> t.mem.Mem_hier.mem_latency
      in
      (* Overlapping non-blocking misses cost one extra depth when any
         fresh line is expected. *)
      float_of_int t.mem.Mem_hier.l1.Cache.hit_latency
      +. ((reads -. 1.0) /. ports)
      +. (Float.min 1.0 fresh_lines *. float_of_int miss_extra)
  in
  read_time +. compute +. (writes /. ports)

let with_tca_units t tca_units = { t with tca_units }

let validate t =
  let open Tca_util.Diag.Syntax in
  let bound name v min =
    let+ _ = Tca_util.Diag.at_least ~field:("Config." ^ name) ~min v in
    ()
  in
  let* () = bound "dispatch_width" t.dispatch_width 1 in
  let* () = bound "issue_width" t.issue_width 1 in
  let* () = bound "commit_width" t.commit_width 1 in
  let* () = bound "rob_size" t.rob_size 2 in
  let* () = bound "iq_size" t.iq_size 1 in
  let* () = bound "lsq_size" t.lsq_size 1 in
  let* () = bound "int_alu_units" t.int_alu_units 1 in
  let* () = bound "int_mult_units" t.int_mult_units 1 in
  let* () = bound "fp_units" t.fp_units 1 in
  let* () = bound "mem_ports" t.mem_ports 1 in
  let* () = bound "frontend_depth" t.frontend_depth 1 in
  let* () = bound "commit_depth" t.commit_depth 0 in
  let* () = bound "latencies.int_alu" t.latencies.int_alu 1 in
  let* () = bound "latencies.int_mult" t.latencies.int_mult 1 in
  let* () = bound "latencies.fp_alu" t.latencies.fp_alu 1 in
  let* () = bound "latencies.fp_mult" t.latencies.fp_mult 1 in
  let* () =
    if Array.length t.tca_units = 0 then
      Error
        (Tca_util.Diag.Invalid
           {
             field = "Config.tca_units";
             message = "at least one TCA unit is required";
           })
    else begin
      let bad = ref None in
      Array.iteri
        (fun i (u : Tca_unit.t) ->
          if !bad = None then
            if u.Tca_unit.id <> i then
              bad :=
                Some
                  (Tca_util.Diag.Invalid
                     {
                       field = "Config.tca_units";
                       message =
                         Printf.sprintf
                           "unit at position %d has id %d (ids must equal \
                            their table position, the lookup key of \
                            Isa.accel.unit_id)"
                           i u.Tca_unit.id;
                     })
            else
              match Tca_unit.validate u with
              | Ok _ -> ()
              | Error d -> bad := Some d)
        t.tca_units;
      match !bad with None -> Ok () | Some d -> Error d
    end
  in
  let* () =
    match t.tca_speculate_fraction with
    | None -> Ok ()
    | Some p ->
        let+ _ =
          Tca_util.Diag.in_range ~field:"Config.tca_speculate_fraction"
            ~lo:0.0 ~hi:1.0 p
        in
        ()
  in
  match t.max_cycles with
  | None -> Ok ()
  | Some c -> bound "max_cycles" c 1

let validate_exn t = Tca_util.Diag.ok_exn (validate t)
