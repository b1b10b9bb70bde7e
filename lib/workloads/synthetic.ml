open Tca_uarch

type config = {
  n_units : int;
  n_chunks : int;
  accel_latency : int;
  app : Codegen.config;
  seed : int;
}

(* Instructions per unit. *)
let unit_len = 50

let config ?(app = Codegen.model_friendly_config) ?(seed = 1) ~n_units
    ~n_chunks ~accel_latency () =
  if n_units <= 0 then invalid_arg "Synthetic.config: n_units must be positive";
  if n_chunks < 0 || n_chunks > n_units then
    invalid_arg "Synthetic.config: n_chunks out of range";
  if accel_latency < 1 then invalid_arg "Synthetic.config: accel_latency below 1";
  { n_units; n_chunks; accel_latency; app; seed }

let latency_for_factor ~unit_len ~ipc ~accel_factor =
  if ipc <= 0.0 || accel_factor <= 0.0 then
    invalid_arg "Synthetic.latency_for_factor: non-positive parameter";
  max 1 (int_of_float (Float.round (float_of_int unit_len /. (accel_factor *. ipc))))

(* Pick which units are acceleratable: a random subset, so invocations are
   NOT evenly spaced. *)
let choose_units rng cfg =
  let ids = Array.init cfg.n_units Fun.id in
  Tca_util.Prng.shuffle rng ids;
  let chosen = Array.make cfg.n_units false in
  for i = 0 to cfg.n_chunks - 1 do
    chosen.(ids.(i)) <- true
  done;
  chosen

let generate cfg =
  let rng = Tca_util.Prng.create cfg.seed in
  let placement_rng = Tca_util.Prng.split rng in
  let chosen = choose_units placement_rng cfg in
  let build variant =
    (* A fresh app-code generator with the same substream for both
       variants keeps the non-acceleratable instructions identical. *)
    let app_rng = Tca_util.Prng.create (cfg.seed + 0x5eed) in
    let gen = Codegen.create ~config:cfg.app ~rng:app_rng () in
    let chunk_rng = Tca_util.Prng.create (cfg.seed + 0xacce1) in
    (* Distinct branch-site base: the chunks' sites must not alias the
       surrounding application's sites in the predictor tables. The
       register window must also be disjoint from the application
       generator's: the accelerated variant replaces each chunk with an
       opaque invocation, so any chunk-written register the application
       later read would make the two variants compute different
       values. *)
    let chunk_reg_base =
      (* Disjoint from the application window [0, dep_window) whenever
         the register file is wide enough for two windows. *)
      min cfg.app.Codegen.dep_window
        (Isa.num_arch_regs - cfg.app.Codegen.dep_window)
    in
    let chunk_cfg =
      (* Chunks read the application's working set — loads are
         equivalence-legal (the audit reports them as an undeclared read
         footprint) and keep the baseline's lines exactly as warm as the
         accelerated variant's. Stores are not: a chunk store the
         application can observe is semantically an undeclared
         accelerator write, so the kernel keeps its state in registers. *)
      { cfg.app with Codegen.store_every = 0 }
    in
    let chunk_gen =
      Codegen.create ~config:chunk_cfg ~site_base:0xC000
        ~reg_base:chunk_reg_base ~rng:chunk_rng ()
    in
    (* An import prologue seeds every chunk register from the
       application window at chunk entry. The chunk's dataflow therefore
       serializes behind the application's in-flight values — the same
       boundary dependence the old shared-window generator created —
       but only inside the baseline region: the accelerated variant
       replaces the whole chunk, invocation included, with an opaque
       instruction, so its surrounding code keeps the overlap the
       tight-coupling modes assume. Region reads of application
       registers are equivalence-legal; region writes would not be. *)
    let n_import = min cfg.app.Codegen.dep_window unit_len in
    let b = Trace.Builder.create ~capacity:(cfg.n_units * unit_len) () in
    for u = 0 to cfg.n_units - 1 do
      if chosen.(u) then
        match variant with
        | `Baseline ->
            for i = 0 to n_import - 1 do
              Trace.Builder.add b
                (Isa.int_alu ~src1:i ~dst:(chunk_reg_base + i) ())
            done;
            Codegen.emit_block chunk_gen b (unit_len - n_import)
        | `Accelerated ->
            Trace.Builder.add b
              (Isa.accel ~compute_latency:cfg.accel_latency ~reads:[||]
                 ~writes:[||] ())
      else Codegen.emit_block gen b unit_len
    done;
    Trace.Builder.build b
  in
  Meta.make ~name:"synthetic"
    ~baseline:(build `Baseline)
    ~accelerated:(build `Accelerated)
    ~compute_latency:cfg.accel_latency ()
