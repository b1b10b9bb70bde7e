(* A tour of the paper's Fig. 2 reference accelerators that this
   repository implements as real substrates: the heap manager, the hash
   map, string functions, and regular expressions. For each, the workload
   generator runs the genuine data structure / engine, measures the
   software granularity it produces, and the simulator measures the four
   coupling modes — placing each marker on the fine-grained spectrum
   where mode choice decides between speedup and slowdown.

   Run with: dune exec examples/markers_tour.exe (takes ~20 s) *)

open Tca_workloads
open Tca_experiments

let row name granularity (rows : Exp_common.validation_row list) =
  let sim m =
    (List.find
       (fun (r : Exp_common.validation_row) ->
         Tca_model.Mode.equal r.Exp_common.mode m)
       rows)
      .Exp_common.sim_speedup
  in
  [
    name;
    Printf.sprintf "%.0f" granularity;
    Tca_util.Table.float_cell (sim Tca_model.Mode.NL_NT);
    Tca_util.Table.float_cell (sim Tca_model.Mode.L_T);
    (if sim Tca_model.Mode.NL_NT < 1.0 then "yes" else "no");
  ]

let () =
  let cfg = Exp_common.validation_core () in
  let validate (pair : Meta.pair) ~latency =
    fst
      (Exp_common.validate_pair ~cfg ~pair
         ~model:(Exp_common.scenario_speedup pair.Meta.meta ~latency)
         ())
  in
  print_endline
    "Fig. 2 reference accelerators, measured on this repository's real \
     substrates (one operating point each):";
  print_newline ();
  (* Hash map: ~17 uops. *)
  let hm_pair, hm_probes =
    Hashmap_workload.generate
      (Hashmap_workload.config ~n_lookups:800 ~app_instrs_per_lookup:200 ())
  in
  let hm_rows =
    validate hm_pair ~latency:(Exp_common.meta_latency hm_pair.Meta.meta ~cfg)
  in
  let hm_g =
    float_of_int
      (Tca_hashmap.Cost_model.software_uops
         ~probes:(int_of_float (Float.round hm_probes)))
  in
  (* Heap manager: 53 uops. *)
  let heap_pair =
    Heap_workload.generate
      (Heap_workload.config ~n_calls:800 ~app_instrs_per_call:200 ())
  in
  let heap_rows = validate heap_pair ~latency:1.0 in
  (* String functions: ~140 uops. *)
  let sf_pair, sf_bytes =
    Strfn_workload.generate
      (Strfn_workload.config ~n_calls:600 ~app_instrs_per_call:300 ())
  in
  let sf_rows =
    validate sf_pair ~latency:(Exp_common.meta_latency sf_pair.Meta.meta ~cfg)
  in
  let sf_g =
    float_of_int
      (Tca_strfn.Cost_model.software_uops
         ~bytes_inspected:(int_of_float sf_bytes))
  in
  (* Regular expressions: ~1.3k uops. *)
  let re_pair, re_chars =
    Regex_workload.generate
      (Regex_workload.config ~n_records:250 ~app_instrs_per_record:800 ())
  in
  let re_rows =
    validate re_pair ~latency:(Exp_common.meta_latency re_pair.Meta.meta ~cfg)
  in
  let re_g =
    float_of_int
      (Tca_regex.Cost_model.software_uops
         ~chars_scanned:(int_of_float re_chars))
  in
  Tca_util.Table.print
    ~headers:
      [ "accelerator"; "granularity (uops)"; "NL_NT"; "L_T"; "NL_NT slows?" ]
    [
      row "hash map" hm_g hm_rows;
      row "heap manager" 53.0 heap_rows;
      row "string functions" sf_g sf_rows;
      row "regular expression" re_g re_rows;
    ];
  print_newline ();
  print_endline
    "The paper's Fig. 2 story, measured: the finer the accelerator, the \
     more the coupling mode matters — the finest markers lose performance \
     behind a dispatch barrier while full OoO integration always wins."
