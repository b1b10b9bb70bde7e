(* Seeded workload inputs. Sizes mirror [Exp_common.workload_pair] (the
   [tca sim] / [tca verify all] defaults); the benchmark seed is passed to
   every generator, and seed 1 — each generator's own default — gives
   exactly the pairs [tca verify all] checks. *)

open Tca_workloads

let cfg = Tca_experiments.Exp_common.validation_core ()

let line_bytes = cfg.Tca_uarch.Config.mem.Tca_uarch.Mem_hier.l1.Tca_uarch.Cache.line_bytes

type entry = {
  name : string;
  pair : Meta.pair;
  latency : float;  (** the architect's accelerator latency estimate *)
  units : Tca_uarch.Tca_unit.t array option;
      (** unit table the accelerated trace needs, for multi-unit pairs *)
}

let single = [ "synthetic"; "heap"; "dgemm"; "hashmap"; "regex"; "strfn" ]

let multi =
  List.map (fun k -> (Multi_tca.kind_name k, k)) Multi_tca.all_kinds

(* The nine pairs of [tca verify all], in its order. *)
let verify_names = single @ List.map fst multi

let auto p = Tca_experiments.Exp_common.meta_latency p.Meta.meta ~cfg

let uops (p : Meta.pair) =
  Tca_uarch.Trace.length p.Meta.baseline
  + Tca_uarch.Trace.length p.Meta.accelerated

let generate_raw ~seed name =
  let plain pair latency = { name; pair; latency; units = None } in
  match name with
  | "synthetic" ->
      plain
        (Synthetic.generate
           (Synthetic.config ~seed ~n_units:4000 ~n_chunks:200
              ~accel_latency:20 ()))
        20.0
  | "heap" ->
      plain
        (Heap_workload.generate
           (Heap_workload.config ~seed ~n_calls:2000 ~app_instrs_per_call:100
              ()))
        (float_of_int Tca_heap.Cost_model.accel_latency)
  | "dgemm" ->
      let p = Dgemm_workload.pair (Dgemm_workload.config ~seed ~n:64 ()) ~dim:4 in
      plain p (auto p)
  | "hashmap" ->
      let p, _ =
        Hashmap_workload.generate
          (Hashmap_workload.config ~seed ~n_lookups:1500
             ~app_instrs_per_lookup:200 ())
      in
      plain p (auto p)
  | "regex" ->
      let p, _ =
        Regex_workload.generate
          (Regex_workload.config ~seed ~n_records:300
             ~app_instrs_per_record:800 ())
      in
      plain p (auto p)
  | "strfn" ->
      let p, _ =
        Strfn_workload.generate
          (Strfn_workload.config ~seed ~n_calls:1000 ~app_instrs_per_call:300
             ())
      in
      plain p (auto p)
  | _ -> (
      match List.assoc_opt name multi with
      | Some kind ->
          let sc = Multi_tca.generate (Multi_tca.config ~seed kind) in
          {
            name;
            pair = sc.Multi_tca.pair;
            latency = nan;
            units = Some sc.Multi_tca.tca_units;
          }
      | None -> invalid_arg ("unknown workload pair " ^ name))

(* One generator call, as the workloads layer. *)
let generate ~seed name =
  Layers.time "workloads.generate"
    ~work:(fun e -> float_of_int (uops e.pair))
    (fun () -> generate_raw ~seed name)

(* Decode both traces of a freshly generated pair (the memo is empty, so
   this is the real decode), as the decode layer. *)
let decode (e : entry) =
  List.iter
    (fun t ->
      ignore
        (Layers.time "decode"
           ~work:(fun _ -> float_of_int (Tca_uarch.Trace.length t))
           (fun () -> Tca_uarch.Trace.decoded t)))
    [ e.pair.Meta.baseline; e.pair.Meta.accelerated ]
