open Tca_uarch
open Tca_regex

type config = {
  n_records : int;
  app_instrs_per_record : int;
  app : Codegen.config;
  seed : int;
}

let pattern = "err(or)?[0-9]+"
let record_len = 256
let match_fraction = 0.3

let config ?(app = Codegen.model_friendly_config) ?(seed = 1) ~n_records
    ~app_instrs_per_record () =
  if n_records <= 0 then invalid_arg "Regex_workload.config: n_records must be positive";
  if app_instrs_per_record < 0 then
    invalid_arg "Regex_workload.config: negative app_instrs_per_record";
  { n_records; app_instrs_per_record; app; seed }

let text_base = 0x3000_0000

(* Filler text over a lowercase-ish alphabet that cannot accidentally
   complete the pattern (no digits). *)
let filler_alphabet = "abcdfghjklmnpqstuvwxyz .,;:"

let make_record rng ~planted =
  let b = Bytes.create record_len in
  for i = 0 to record_len - 1 do
    Bytes.set b i
      filler_alphabet.[Tca_util.Prng.int rng (String.length filler_alphabet)]
  done;
  if planted then begin
    let needle = Printf.sprintf "error%d" (Tca_util.Prng.int rng 100) in
    let max_at = record_len - String.length needle - 1 in
    let at = Tca_util.Prng.int rng (max 1 max_at) in
    Bytes.blit_string needle 0 b at (String.length needle)
  end;
  Bytes.to_string b

(* Pre-plan every search against the real engine so both variants replay
   identical scan behaviour. *)
let plan cfg =
  let rng = Tca_util.Prng.create (cfg.seed + 0x8e6) in
  let engine = Engine.compile (Pattern.parse_exn pattern) in
  Array.init cfg.n_records (fun i ->
      let planted = Tca_util.Prng.bernoulli rng match_fraction in
      let record = make_record rng ~planted in
      let result = Engine.search engine record in
      (* Sanity: planted matches must be found. *)
      if planted && not result.Engine.found then
        failwith "Regex_workload: planted match not found by the engine";
      (i * record_len, result.Engine.chars_scanned))

let generate cfg =
  let searches = plan cfg in
  let mean_scan =
    Tca_util.Diag.ok_exn
      (Tca_util.Stats.mean (Array.map (fun (_, c) -> float_of_int c) searches))
  in
  let build emit_search =
    Codegen.call_sites ~config:cfg.app
      ~app_rng:(Tca_util.Prng.create (cfg.seed + 0x3e))
      ~gap_rng:(Tca_util.Prng.create (cfg.seed + 0x5c))
      ~mean_gap:cfg.app_instrs_per_record searches
      (fun b (offset, chars_scanned) ->
        emit_search b ~text_base ~start:offset ~chars_scanned;
        Trace.Builder.add b
          (Isa.int_alu ~src1:Cost_model.result_reg ~dst:2 ()))
  in
  let baseline = build Cost_model.emit_search in
  let accelerated = build Cost_model.emit_search_accel in
  (* A streaming scan over a large corpus rarely finds its text in the
     L1: every line is a first touch. *)
  let pair =
    Meta.make ~name:"regex" ~baseline ~accelerated
      ~fresh_lines:(fun ~reads -> reads)
      ~compute_latency:
        (Tca_regex.Cost_model.accel_compute_latency
           ~chars_scanned:(int_of_float mean_scan))
      ()
  in
  (pair, mean_scan)
