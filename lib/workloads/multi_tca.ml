open Tca_uarch

type kind = Alternating | Chained | Contended

let kind_name = function
  | Alternating -> "multi-alternating"
  | Chained -> "multi-chained"
  | Contended -> "multi-contended"

let all_kinds = [ Alternating; Chained; Contended ]

type config = {
  kind : kind;
  n_pairs : int;
  unit_len : int;
  latency0 : int;
  latency1 : int;
  seed : int;
}

(* Application instructions before (between) chunks. *)
let app_len = 60

(* Enough iterations that the L1 is warm for the vast majority of the
   run: at the default sizes one pair is 220 baseline instructions, and
   the ~16 KiB working set stops missing after the first ~40 pairs. *)
let config ?(n_pairs = 400) ?(unit_len = 50) ?(latency0 = 10) ?(latency1 = 60)
    ?(seed = 1) kind =
  if n_pairs <= 0 then invalid_arg "Multi_tca.config: n_pairs must be positive";
  if unit_len < 4 then invalid_arg "Multi_tca.config: unit_len below 4";
  if latency0 < 1 || latency1 < 1 then
    invalid_arg "Multi_tca.config: latency below 1";
  { kind; n_pairs; unit_len; latency0; latency1; seed }

type unit_usage = {
  unit_id : int;
  invocations : int;
  acceleratable_instrs : int;
  compute_latency : int;
}

type scenario = {
  pair : Meta.pair;
  tca_units : Tca_unit.t array;
  usage : unit_usage list;
  chained_fraction : float;
}

(* The register that carries unit 0's result into unit 1's region in the
   [Chained] scenario. Outside both the application window [0, 16) and
   the chunk window [16, 32) of [Codegen.model_friendly_config], so
   nothing but the export/import instructions and the accel operands
   ever touch it. *)
let chain_reg = 40

(* Fixed per-unit read sets for the [Contended] scenario: the same warm
   lines every invocation, in an address range the application generator
   never touches, so both units' invocations contend on the shared
   memory ports rather than on cache capacity. *)
let contended_reads u =
  let base = if u = 0 then 0x0100_0000 else 0x0110_0000 in
  Array.init 8 (fun j -> base + (64 * j))

let generate cfg =
  let app_cfg = Codegen.model_friendly_config in
  (* Same layout reasoning as [Synthetic.generate]: a chunk register
     window disjoint from the application's, loads allowed, stores not
     (a chunk store the application could observe would be an undeclared
     accelerator write). *)
  let chunk_reg_base =
    min app_cfg.Codegen.dep_window
      (Isa.num_arch_regs - app_cfg.Codegen.dep_window)
  in
  let chunk_cfg = { app_cfg with Codegen.store_every = 0 } in
  let n_import = min app_cfg.Codegen.dep_window (cfg.unit_len - 2) in
  let latency u = if u = 0 then cfg.latency0 else cfg.latency1 in
  let build variant =
    let app_rng = Tca_util.Prng.create (cfg.seed + 0x5eed) in
    let gen = Codegen.create ~config:app_cfg ~rng:app_rng () in
    let chunk_rng = Tca_util.Prng.create (cfg.seed + 0xacce1) in
    let chunk_gen =
      Codegen.create ~config:chunk_cfg ~site_base:0xC000
        ~reg_base:chunk_reg_base ~rng:chunk_rng ()
    in
    let b =
      Trace.Builder.create
        ~capacity:(cfg.n_pairs * ((2 * app_len) + (2 * cfg.unit_len)))
        ()
    in
    (* One baseline chunk: an import prologue seeding the chunk window
       from live values (the boundary dependence every region has), the
       random kernel body, and optionally an export of the chunk's
       result into [chain_reg]. *)
    let emit_chunk ~import_from ~export =
      for i = 0 to n_import - 1 do
        let src =
          match import_from with Some r when i = 0 -> r | _ -> i
        in
        Trace.Builder.add b
          (Isa.int_alu ~src1:src ~dst:(chunk_reg_base + i) ())
      done;
      let body =
        cfg.unit_len - n_import - (match export with Some _ -> 1 | None -> 0)
      in
      Codegen.emit_block chunk_gen b body;
      match export with
      | Some r -> Trace.Builder.add b (Isa.int_alu ~src1:chunk_reg_base ~dst:r ())
      | None -> ()
    in
    let emit_accel u ~src1 ~dst ~reads =
      Trace.Builder.add b
        (Isa.accel ?src1 ?dst ~unit_id:u ~compute_latency:(latency u) ~reads
           ~writes:[||] ())
    in
    let emit_unit u =
      let import_from, export, src1, dst, reads =
        match cfg.kind with
        | Alternating -> (None, None, None, None, [||])
        | Chained when u = 0 -> (None, Some chain_reg, None, Some chain_reg, [||])
        | Chained -> (Some chain_reg, None, Some chain_reg, None, [||])
        | Contended -> (None, None, None, None, contended_reads u)
      in
      match variant with
      | `Baseline -> emit_chunk ~import_from ~export
      | `Accelerated -> emit_accel u ~src1 ~dst ~reads
    in
    for _ = 1 to cfg.n_pairs do
      Codegen.emit_block gen b app_len;
      emit_unit 0;
      (* Alternating interposes application code between the two
         invocations; Chained and Contended issue them back to back so
         both are simultaneously in flight. *)
      if cfg.kind = Alternating then Codegen.emit_block gen b app_len;
      emit_unit 1
    done;
    Trace.Builder.build b
  in
  let pair =
    Meta.make ~name:(kind_name cfg.kind)
      ~baseline:(build `Baseline)
      ~accelerated:(build `Accelerated)
      ~compute_latency:((cfg.latency0 + cfg.latency1) / 2)
      ()
  in
  {
    pair;
    tca_units = [| Tca_unit.default 0; Tca_unit.default 1 |];
    usage =
      List.map
        (fun u ->
          {
            unit_id = u;
            invocations = cfg.n_pairs;
            acceleratable_instrs = cfg.n_pairs * cfg.unit_len;
            compute_latency = latency u;
          })
        [ 0; 1 ];
    chained_fraction =
      (* The second invocation of every pair is chained/interleaved with
         the first in the Chained and Contended shapes — half of all
         invocations — and none are in Alternating. *)
      (match cfg.kind with Alternating -> 0.0 | Chained | Contended -> 0.5);
  }
