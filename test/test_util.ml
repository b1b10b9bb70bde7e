open Tca_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next a <> Prng.next b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 13 in
    Alcotest.(check bool) "in [0, 13)" true (x >= 0 && x < 13)
  done

let test_prng_int_invalid () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_int_in () =
  let rng = Prng.create 3 in
  for _ = 1 to 500 do
    let x = Prng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5, 9]" true (x >= 5 && x <= 9)
  done;
  Alcotest.(check int) "singleton" 4 (Prng.int_in rng 4 4)

let test_prng_int_in_empty () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in rng 3 2))

let test_prng_float_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_bernoulli_extremes () =
  let rng = Prng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_prng_bernoulli_rate () =
  let rng = Prng.create 9 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 13 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_choose () =
  let rng = Prng.create 17 in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.choose rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose rng [||]))

let test_prng_copy_independent () =
  let a = Prng.create 23 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  let xa = Prng.next a in
  let xb = Prng.next b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* Two draws from a leave b where it was: b's next draw is a's first. *)
  let ya = Prng.next a in
  ignore (Prng.next a);
  Alcotest.(check int64) "advancing a does not advance b" ya (Prng.next b)

let test_prng_split () =
  let a = Prng.create 29 in
  let child = Prng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next a <> Prng.next child then differs := true
  done;
  Alcotest.(check bool) "child stream differs" true !differs

(* --- Stats --- *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* Assert that a result is an [Error] carrying the expected [Diag]
   variant. *)
let check_diag name pred = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error, got Ok")
  | Error d ->
      if not (pred d) then
        Alcotest.fail
          (Printf.sprintf "%s: unexpected diagnostic %s" name
             (Diag.to_string d))

let is_domain = function Diag.Domain _ -> true | _ -> false
let is_non_finite = function Diag.Non_finite _ -> true | _ -> false
let is_empty_input = function Diag.Empty_input _ -> true | _ -> false
let is_ragged = function Diag.Ragged_input _ -> true | _ -> false
let is_invalid = function Diag.Invalid _ -> true | _ -> false

let test_stats_mean () =
  Alcotest.(check bool) "mean" true (feq (Diag.ok_exn (Stats.mean [| 1.0; 2.0; 3.0 |])) 2.0)

let test_stats_mean_empty () =
  check_diag "mean of empty" is_empty_input (Stats.mean [||]);
  Alcotest.check_raises "mean_exn raises Diag.Error" (Diag.Error (Diag.Empty_input { field = "Stats.mean" }))
    (fun () -> ignore (Diag.ok_exn (Stats.mean [||])))

let test_stats_non_finite_inputs () =
  check_diag "mean with nan" is_non_finite (Stats.mean [| 1.0; Float.nan |]);
  check_diag "mean with inf" is_non_finite (Stats.mean [| Float.infinity |]);
  check_diag "variance with nan" is_non_finite (Stats.variance [| Float.nan |]);
  check_diag "max with inf" is_non_finite
    (Stats.max [| Float.infinity; 1.0 |]);
  check_diag "relative_error nan" is_non_finite
    (Stats.relative_error ~measured:Float.nan ~estimated:1.0)

let test_stats_geomean () =
  Alcotest.(check bool) "geomean" true
    (feq (Diag.ok_exn (Stats.geomean [| 1.0; 4.0 |])) 2.0)

let test_stats_geomean_nonpositive () =
  check_diag "geomean of zero" is_domain (Stats.geomean [| 1.0; 0.0 |]);
  check_diag "geomean of negative" is_domain (Stats.geomean [| 1.0; -2.0 |])

let test_stats_variance_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check bool) "variance" true (feq (Diag.ok_exn (Stats.variance xs)) 4.0);
  Alcotest.(check bool) "stddev" true (feq (Diag.ok_exn (Stats.stddev xs)) 2.0)

let test_stats_minmax () =
  let xs = [| 3.0; -1.0; 7.5 |] in
  Alcotest.(check bool) "max" true (feq (Diag.ok_exn (Stats.max xs)) 7.5)

let test_stats_median_percentile () =
  Alcotest.(check bool) "odd median" true
    (feq (Stats.median_exn [| 3.0; 1.0; 2.0 |]) 2.0);
  Alcotest.(check bool) "even median interpolates" true
    (feq (Stats.median_exn [| 1.0; 2.0; 3.0; 4.0 |]) 2.5);
  Alcotest.(check bool) "p0 = min" true
    (feq (Stats.percentile_exn [| 5.0; 1.0; 3.0 |] 0.0) 1.0);
  Alcotest.(check bool) "p100 = max" true
    (feq (Stats.percentile_exn [| 5.0; 1.0; 3.0 |] 100.0) 5.0)

let test_stats_percentile_invalid () =
  check_diag "p above 100" is_domain (Stats.percentile [| 1.0 |] 101.0);
  check_diag "p below 0" is_domain (Stats.percentile [| 1.0 |] (-0.5));
  check_diag "p nan" is_non_finite (Stats.percentile [| 1.0 |] Float.nan)

let test_stats_relative_error () =
  Alcotest.(check bool) "optimistic positive" true
    (feq (Diag.ok_exn (Stats.relative_error ~measured:2.0 ~estimated:3.0)) 0.5);
  Alcotest.(check bool) "pessimistic negative" true
    (feq (Diag.ok_exn (Stats.relative_error ~measured:2.0 ~estimated:1.0)) (-0.5));
  check_diag "measured zero" is_invalid
    (Stats.relative_error ~measured:0.0 ~estimated:1.0)

let test_stats_mape () =
  let mape ~measured ~estimated =
    Diag.ok_exn (Stats.mape ~measured ~estimated)
  in
  Alcotest.(check bool) "zero for exact" true
    (feq (mape ~measured:[| 1.0; 2.0 |] ~estimated:[| 1.0; 2.0 |]) 0.0);
  Alcotest.(check bool) "10 percent" true
    (feq (mape ~measured:[| 10.0 |] ~estimated:[| 11.0 |]) 10.0)

let test_stats_mape_ragged () =
  check_diag "ragged pair" is_ragged
    (Stats.mape ~measured:[| 1.0; 2.0 |] ~estimated:[| 1.0 |]);
  check_diag "empty pair" is_empty_input
    (Stats.mape ~measured:[||] ~estimated:[||])

let prop_mean_bounded =
  qtest "mean between min and max"
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Diag.ok_exn (Stats.mean xs) in
      let lo = Array.fold_left Float.min infinity xs in
      m >= lo -. 1e-6 && m <= Diag.ok_exn (Stats.max xs) +. 1e-6)

let prop_geomean_le_mean =
  qtest "AM-GM inequality"
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range 0.001 1e3))
    (fun xs ->
      Diag.ok_exn (Stats.geomean xs) <= Diag.ok_exn (Stats.mean xs) +. 1e-9)

let prop_percentile_monotone =
  qtest "percentile monotone in p"
    QCheck.(
      pair
        (array_of_size Gen.(int_range 2 40) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile_exn xs lo <= Stats.percentile_exn xs hi +. 1e-9)

(* --- Sweep --- *)

let test_linspace () =
  let xs = Sweep.linspace_exn 0.0 10.0 11 in
  Alcotest.(check int) "count" 11 (Array.length xs);
  Alcotest.(check bool) "first" true (feq xs.(0) 0.0);
  Alcotest.(check bool) "last" true (feq xs.(10) 10.0);
  Alcotest.(check bool) "step" true (feq xs.(3) 3.0)

let test_linspace_invalid () =
  check_diag "one point" is_domain (Sweep.linspace 0.0 1.0 1);
  check_diag "zero points" is_domain (Sweep.linspace 0.0 1.0 0);
  check_diag "nan endpoint" is_non_finite (Sweep.linspace Float.nan 1.0 5);
  check_diag "inf endpoint" is_non_finite (Sweep.linspace 0.0 Float.infinity 5)

let test_logspace () =
  let xs = Sweep.logspace_exn 1.0 1000.0 4 in
  Alcotest.(check int) "count" 4 (Array.length xs);
  Alcotest.(check bool) "first" true (feq ~eps:1e-6 xs.(0) 1.0);
  Alcotest.(check bool) "second" true (feq ~eps:1e-6 xs.(1) 10.0);
  Alcotest.(check bool) "last" true (feq ~eps:1e-6 xs.(3) 1000.0)

let test_logspace_invalid () =
  check_diag "non-positive endpoint" is_domain (Sweep.logspace 0.0 10.0 3);
  check_diag "negative endpoint" is_domain (Sweep.logspace (-1.0) 10.0 3);
  check_diag "too few points" is_domain (Sweep.logspace 1.0 10.0 1)

let test_geometric_ints_invalid () =
  check_diag "ratio 1" is_domain (Sweep.geometric_ints 1 100 1.0);
  check_diag "ratio nan" is_non_finite (Sweep.geometric_ints 1 100 Float.nan);
  check_diag "lo 0" is_domain (Sweep.geometric_ints 0 100 2.0)

let test_int_range () =
  Alcotest.(check (array int)) "basic" [| 3; 4; 5 |] (Sweep.int_range 3 5);
  Alcotest.(check (array int)) "empty" [||] (Sweep.int_range 5 3)

let test_geometric_ints () =
  let xs = Diag.ok_exn (Sweep.geometric_ints 1 100 2.0) in
  Alcotest.(check bool) "starts at lo" true (xs.(0) = 1);
  Alcotest.(check bool) "ends at hi" true (xs.(Array.length xs - 1) = 100);
  let increasing = ref true in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) <= xs.(i - 1) then increasing := false
  done;
  Alcotest.(check bool) "strictly increasing" true !increasing

let prop_linspace_monotone =
  qtest "linspace monotone"
    QCheck.(triple (float_range (-100.) 100.) (float_range 0.1 100.) (int_range 2 50))
    (fun (lo, span, n) ->
      let xs = Sweep.linspace_exn lo (lo +. span) n in
      let ok = ref true in
      for i = 1 to n - 1 do
        if xs.(i) < xs.(i - 1) then ok := false
      done;
      !ok)

(* --- Table --- *)

let test_table_render () =
  let s =
    Table.render ~headers:[ "name"; "value" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let starts_with prefix l = String.starts_with ~prefix l in
  Alcotest.(check bool) "header line first" true
    (match lines with first :: _ -> starts_with "name" first | [] -> false);
  Alcotest.(check bool) "contains row" true
    (List.exists (starts_with "longer") lines);
  (* Header, rule and one line per row. *)
  Alcotest.(check int) "line count" 4 (List.length lines)

let test_table_alignment () =
  let s =
    Table.render ~headers:[ "name"; "value" ]
      [ [ "x"; "1" ]; [ "longer"; "22" ] ]
  in
  Alcotest.(check (list string)) "first column left, the rest right"
    [ "name    value"; "------  -----"; "x           1"; "longer     22" ]
    (String.split_on_char '\n' s |> List.filter (fun l -> l <> ""))

let test_table_arity_error () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Table.render ~headers:[ "a"; "b" ] [ [ "x" ] ]))

let test_table_cells () =
  Alcotest.(check string) "float default" "1.500" (Table.float_cell 1.5);
  Alcotest.(check string) "float decimals" "1.50" (Table.float_cell ~decimals:2 1.5);
  Alcotest.(check string) "pct" "12.5%" (Table.pct_cell 0.125)

(* --- Heatmap --- *)

let test_heatmap_cell_char () =
  Alcotest.(check char) "strong speedup" '#' (Heatmap.cell_char 5.0);
  Alcotest.(check char) "2x" '+' (Heatmap.cell_char 2.5);
  Alcotest.(check char) "mild" '.' (Heatmap.cell_char 1.1);
  Alcotest.(check char) "neutral" ' ' (Heatmap.cell_char 1.0);
  Alcotest.(check char) "mild slowdown" '-' (Heatmap.cell_char 0.9);
  Alcotest.(check char) "strong slowdown" '@' (Heatmap.cell_char 0.2);
  Alcotest.(check char) "invalid" '?' (Heatmap.cell_char (-1.0))

let test_heatmap_symmetry () =
  (* 1.5x speedup and 1/1.5 slowdown should land in symmetric bands. *)
  Alcotest.(check char) "1.5 up" ':' (Heatmap.cell_char 1.5);
  Alcotest.(check char) "1.5 down" '=' (Heatmap.cell_char (1.0 /. 1.5))

let test_heatmap_make_errors () =
  check_diag "ragged rows" is_ragged
    (Heatmap.make
       ~values:[| [| 1.0 |]; [| 1.0; 2.0 |] |]
       ~row_labels:[| "a"; "b" |] ~col_labels:[| "c" |]);
  check_diag "label/row mismatch" is_ragged
    (Heatmap.make
       ~values:[| [| 1.0 |] |]
       ~row_labels:[| "a"; "b" |] ~col_labels:[| "c" |]);
  check_diag "no rows" is_empty_input
    (Heatmap.make ~values:[||] ~row_labels:[||] ~col_labels:[||])

let test_heatmap_render () =
  let hm =
    Diag.ok_exn (Heatmap.make
      ~values:[| [| 2.0; 0.5 |]; [| 1.0; 1.0 |] |]
      ~row_labels:[| "r0"; "r1" |] ~col_labels:[| "c0"; "c1" |])
  in
  let s = Heatmap.render ~title:"T" hm in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  let contains ~sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "has legend" true (contains ~sub:"legend" s)

let test_heatmap_overlay () =
  let hm =
    Diag.ok_exn (Heatmap.make
      ~values:[| [| 2.0 |] |]
      ~row_labels:[| "r" |] ~col_labels:[| "c" |])
  in
  let hm2 = Heatmap.overlay hm [ (0, 0); (99, 99) ] 'X' in
  let s = Heatmap.render hm2 in
  Alcotest.(check bool) "marker drawn" true (String.contains s 'X');
  (* Original unchanged. *)
  let s0 = Heatmap.render hm in
  Alcotest.(check bool) "original untouched" false (String.contains s0 'X')

(* --- Csv --- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_line () =
  Alcotest.(check string) "line" "a,\"b,c\",d" (Csv.line [ "a"; "b,c"; "d" ])

let test_csv_to_string () =
  let s = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n" s

let () =
  Alcotest.run "tca_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "int_in empty" `Quick test_prng_int_in_empty;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_prng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "geomean non-positive" `Quick test_stats_geomean_nonpositive;
          Alcotest.test_case "variance/stddev" `Quick test_stats_variance_stddev;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "median/percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "percentile invalid" `Quick test_stats_percentile_invalid;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          Alcotest.test_case "mape" `Quick test_stats_mape;
          Alcotest.test_case "mape ragged" `Quick test_stats_mape_ragged;
          Alcotest.test_case "non-finite inputs" `Quick test_stats_non_finite_inputs;
          prop_mean_bounded;
          prop_geomean_le_mean;
          prop_percentile_monotone;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "linspace invalid" `Quick test_linspace_invalid;
          Alcotest.test_case "logspace" `Quick test_logspace;
          Alcotest.test_case "logspace invalid" `Quick test_logspace_invalid;
          Alcotest.test_case "int_range" `Quick test_int_range;
          Alcotest.test_case "geometric_ints" `Quick test_geometric_ints;
          Alcotest.test_case "geometric_ints invalid" `Quick test_geometric_ints_invalid;
          prop_linspace_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity error" `Quick test_table_arity_error;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "cell chars" `Quick test_heatmap_cell_char;
          Alcotest.test_case "symmetry" `Quick test_heatmap_symmetry;
          Alcotest.test_case "make errors" `Quick test_heatmap_make_errors;
          Alcotest.test_case "render" `Quick test_heatmap_render;
          Alcotest.test_case "overlay" `Quick test_heatmap_overlay;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "line" `Quick test_csv_line;
          Alcotest.test_case "to_string" `Quick test_csv_to_string;
        ] );
    ]
