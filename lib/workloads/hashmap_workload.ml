open Tca_uarch
open Tca_hashmap

type config = {
  n_lookups : int;
  app_instrs_per_lookup : int;
  capacity_pow2 : int;
  load_factor : float;
  hit_fraction : float;
  app : Codegen.config;
  seed : int;
}

let config ?(capacity_pow2 = 14) ?(load_factor = 0.6) ?(hit_fraction = 0.9)
    ?(app = Codegen.model_friendly_config) ?(seed = 1) ~n_lookups
    ~app_instrs_per_lookup () =
  if n_lookups <= 0 then invalid_arg "Hashmap_workload.config: n_lookups must be positive";
  if app_instrs_per_lookup < 0 then
    invalid_arg "Hashmap_workload.config: negative app_instrs_per_lookup";
  if load_factor <= 0.0 || load_factor > 0.85 then
    invalid_arg "Hashmap_workload.config: load_factor out of (0, 0.85]";
  if hit_fraction < 0.0 || hit_fraction > 1.0 then
    invalid_arg "Hashmap_workload.config: hit_fraction out of [0, 1]";
  {
    n_lookups;
    app_instrs_per_lookup;
    capacity_pow2;
    load_factor;
    hit_fraction;
    app;
    seed;
  }

(* Populate a table to the target load factor and pre-plan every lookup's
   probe trace, so both variants replay identical table behaviour. *)
let plan cfg =
  let rng = Tca_util.Prng.create (cfg.seed + 0x4a5) in
  let table = Table.create ~capacity_pow2:cfg.capacity_pow2 () in
  let n_keys =
    int_of_float (cfg.load_factor *. float_of_int (Table.capacity table))
  in
  let keys = Array.init n_keys (fun i -> (i * 7919) + 13) in
  Array.iter (fun k -> ignore (Table.insert table k (k * 3))) keys;
  Array.init cfg.n_lookups (fun _ ->
      let key =
        if Tca_util.Prng.bernoulli rng cfg.hit_fraction then
          Tca_util.Prng.choose rng keys
        else 1_000_000_000 + Tca_util.Prng.int rng 1_000_000
      in
      Table.find table key)

let generate cfg =
  let lookups = plan cfg in
  let mean_probes =
    Tca_util.Stats.mean_exn
      (Array.map (fun (r : Table.probe_result) -> float_of_int r.Table.probes) lookups)
  in
  let build emit_find =
    Codegen.call_sites ~config:cfg.app
      ~app_rng:(Tca_util.Prng.create (cfg.seed + 0x99))
      ~gap_rng:(Tca_util.Prng.create (cfg.seed + 0x77))
      ~mean_gap:cfg.app_instrs_per_lookup lookups
      (fun b (r : Table.probe_result) ->
        emit_find b ~bucket_addrs:r.Table.bucket_addrs;
        (* The application consumes the looked-up value. *)
        Trace.Builder.add b
          (Isa.int_alu ~src1:Cost_model.result_reg ~dst:1 ()))
  in
  let baseline = build Cost_model.emit_find in
  let accelerated = build Cost_model.emit_find_accel in
  (* Probed buckets are effectively random over the table; the fraction
     beyond what an L1 can keep resident arrives from the next level. *)
  let table_bytes = 16 * (1 lsl cfg.capacity_pow2) in
  let l1_bytes = 32 * 1024 in
  let miss_fraction =
    Float.max 0.0 (1.0 -. (float_of_int l1_bytes /. float_of_int table_bytes))
  in
  let pair =
    Meta.make ~name:"hashmap" ~baseline ~accelerated
      ~fresh_lines:(fun ~reads -> reads *. miss_fraction)
      ~compute_latency:Cost_model.accel_compute_latency ()
  in
  (pair, mean_probes)
