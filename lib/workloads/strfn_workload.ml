open Tca_uarch
open Tca_strfn

type config = {
  n_calls : int;
  n_strings : int;
  min_len : int;
  max_len : int;
  app_instrs_per_call : int;
  app : Codegen.config;
  seed : int;
}

let config ?(n_strings = 512) ?(min_len = 8) ?(max_len = 120)
    ?(app = Codegen.model_friendly_config) ?(seed = 1) ~n_calls
    ~app_instrs_per_call () =
  if n_calls <= 0 then invalid_arg "Strfn_workload.config: n_calls must be positive";
  if n_strings <= 1 then invalid_arg "Strfn_workload.config: need at least two strings";
  if min_len < 1 || max_len < min_len then
    invalid_arg "Strfn_workload.config: bad length range";
  if app_instrs_per_call < 0 then
    invalid_arg "Strfn_workload.config: negative app_instrs_per_call";
  { n_calls; n_strings; min_len; max_len; app_instrs_per_call; app; seed }

let alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_-/"

let random_string rng cfg =
  let len = Tca_util.Prng.int_in rng cfg.min_len cfg.max_len in
  String.init len (fun _ ->
      alphabet.[Tca_util.Prng.int rng (String.length alphabet)])

(* Pre-plan calls against a real arena: both variants replay identical
   scans. *)
let plan cfg =
  let rng = Tca_util.Prng.create (cfg.seed + 0x57f) in
  let arena =
    Arena.create ~capacity:((cfg.max_len + 2) * cfg.n_strings) ()
  in
  let strings = Array.init cfg.n_strings (fun _ -> random_string rng cfg) in
  let addrs = Array.map (Arena.add_string arena) strings in
  Array.init cfg.n_calls (fun _ ->
      let pick () = addrs.(Tca_util.Prng.int rng cfg.n_strings) in
      match Tca_util.Prng.int rng 3 with
      | 0 -> Arena.strlen arena (pick ())
      | 1 -> Arena.strcmp arena (pick ()) (pick ())
      | _ ->
          Arena.find_char arena (pick ())
            alphabet.[Tca_util.Prng.int rng (String.length alphabet)])

let generate cfg =
  let calls = plan cfg in
  let mean_bytes =
    Tca_util.Stats.mean_exn
      (Array.map
         (fun (s : Arena.scan) -> float_of_int s.Arena.bytes_inspected)
         calls)
  in
  let build emit_call =
    Codegen.call_sites ~config:cfg.app
      ~app_rng:(Tca_util.Prng.create (cfg.seed + 0x21))
      ~gap_rng:(Tca_util.Prng.create (cfg.seed + 0x43))
      ~mean_gap:cfg.app_instrs_per_call calls
      (fun b (scan : Arena.scan) ->
        emit_call b scan;
        Trace.Builder.add b
          (Isa.int_alu ~src1:Cost_model.result_reg ~dst:3 ()))
  in
  let baseline =
    build (fun b scan -> Cost_model.emit_call b ~addrs:scan.Arena.addrs)
  in
  let accelerated =
    build (fun b scan ->
        Cost_model.emit_call_accel b ~addrs:scan.Arena.addrs
          ~bytes_inspected:scan.Arena.bytes_inspected)
  in
  (* The string pool is tens of kB: partially L1-resident. Fraction
     missing = pool beyond the L1. *)
  let pool_bytes = (cfg.max_len + 2) * cfg.n_strings in
  let miss_fraction =
    Float.max 0.0 (1.0 -. (float_of_int (32 * 1024) /. float_of_int pool_bytes))
  in
  let pair =
    Meta.make ~name:"strfn" ~baseline ~accelerated
      ~fresh_lines:(fun ~reads -> reads *. miss_fraction)
      ~compute_latency:
        (Cost_model.accel_compute_latency
           ~bytes_inspected:(int_of_float mean_bytes))
      ()
  in
  (pair, mean_bytes)
