open Tca_regex

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Independent reference matcher (backtracking over the AST, CPS).
   Deliberately a different algorithm from the engine's NFA/DFA so the
   property test cross-checks two implementations. --- *)

let rec ref_match (p : Pattern.t) (s : string) (i : int) (k : int -> bool) :
    bool =
  match p with
  | Pattern.Empty -> k i
  | Pattern.Char c -> i < String.length s && s.[i] = c && k (i + 1)
  | Pattern.Any -> i < String.length s && k (i + 1)
  | Pattern.Class _ ->
      i < String.length s && Pattern.char_matches p s.[i] && k (i + 1)
  | Pattern.Seq (a, b) -> ref_match a s i (fun j -> ref_match b s j k)
  | Pattern.Alt (a, b) -> ref_match a s i k || ref_match b s i k
  | Pattern.Opt a -> ref_match a s i k || k i
  | Pattern.Plus a -> ref_match (Pattern.Seq (a, Pattern.Star a)) s i k
  | Pattern.Star a ->
      (* Greedy loop with progress check to avoid looping on nullable
         bodies. *)
      let rec loop j =
        ref_match a s j (fun j' -> j' > j && loop j') || k j
      in
      loop i

let ref_matches p s = ref_match p s 0 (fun i -> i = String.length s)

(* --- Pattern parser --- *)

let test_parse_basics () =
  Alcotest.(check bool) "literal" true
    (Pattern.parse "abc" |> Result.is_ok);
  Alcotest.(check bool) "class" true (Pattern.parse "[a-z0-9]" |> Result.is_ok);
  Alcotest.(check bool) "negated class" true
    (Pattern.parse "[^ab]" |> Result.is_ok);
  Alcotest.(check bool) "alternation and group" true
    (Pattern.parse "(ab|cd)*e+f?" |> Result.is_ok);
  Alcotest.(check bool) "escape" true (Pattern.parse "a\\*b" |> Result.is_ok)

let test_parse_errors () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Pattern.parse s)) in
  bad "(ab";
  bad "ab)";
  bad "[abc";
  bad "*a";
  bad "a|*";
  bad "[z-a]";
  bad "a\\"

let test_parse_structure () =
  match Pattern.parse "a|b" with
  | Ok (Pattern.Alt (Pattern.Char 'a', Pattern.Char 'b')) -> ()
  | _ -> Alcotest.fail "expected Alt(a, b)"

let test_nullable () =
  Alcotest.(check bool) "star" true (Pattern.nullable (Pattern.parse_exn "a*"));
  Alcotest.(check bool) "plus" false (Pattern.nullable (Pattern.parse_exn "a+"));
  Alcotest.(check bool) "opt" true (Pattern.nullable (Pattern.parse_exn "a?"));
  Alcotest.(check bool) "literal" false (Pattern.nullable (Pattern.parse_exn "a"))

let test_char_matches () =
  let cls = Pattern.parse_exn "[a-c0-9]" in
  Alcotest.(check bool) "in range" true (Pattern.char_matches cls 'b');
  Alcotest.(check bool) "digit" true (Pattern.char_matches cls '7');
  Alcotest.(check bool) "out" false (Pattern.char_matches cls 'z');
  let neg = Pattern.parse_exn "[^a-c]" in
  Alcotest.(check bool) "negated out" false (Pattern.char_matches neg 'b');
  Alcotest.(check bool) "negated in" true (Pattern.char_matches neg 'z')

(* Random pattern ASTs over a tiny alphabet, depth-bounded. *)
let pattern_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun c -> Pattern.Char c) (oneofl [ 'a'; 'b'; 'c' ]));
        (1, return Pattern.Any);
        ( 1,
          map
            (fun negated ->
              Pattern.Class { negated; ranges = [ ('a', 'b') ] })
            bool );
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (2, map2 (fun a b -> Pattern.Seq (a, b)) (node (depth - 1)) (node (depth - 1)));
          (2, map2 (fun a b -> Pattern.Alt (a, b)) (node (depth - 1)) (node (depth - 1)));
          (1, map (fun a -> Pattern.Star a) (node (depth - 1)));
          (1, map (fun a -> Pattern.Plus a) (node (depth - 1)));
          (1, map (fun a -> Pattern.Opt a) (node (depth - 1)));
        ]
  in
  node 3

let string_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 8))

let prop_engine_matches_reference =
  qtest ~count:500 "DFA engine agrees with the backtracking reference"
    (QCheck.make
       ~print:(fun (p, s) -> Printf.sprintf "%s on %S" (Pattern.to_string p) s)
       QCheck.Gen.(pair pattern_gen string_gen))
    (fun (p, s) ->
      let engine = Engine.compile p in
      Engine.matches engine s = ref_matches p s)

let prop_to_string_roundtrip =
  qtest ~count:300 "to_string output reparses to an equivalent pattern"
    (QCheck.make
       ~print:(fun p -> Pattern.to_string p)
       pattern_gen)
    (fun p ->
      match Pattern.parse (Pattern.to_string p) with
      | Error _ -> false
      | Ok p' ->
          (* Equivalence checked behaviourally over a word sample. *)
          let words =
            [ ""; "a"; "b"; "c"; "ab"; "ba"; "abc"; "aab"; "cab"; "bbb"; "acbc" ]
          in
          let e = Engine.compile p and e' = Engine.compile p' in
          List.for_all (fun w -> Engine.matches e w = Engine.matches e' w) words)

(* --- Engine --- *)

let test_matches_known () =
  let e = Engine.compile (Pattern.parse_exn "a*b") in
  Alcotest.(check bool) "b" true (Engine.matches e "b");
  Alcotest.(check bool) "aaab" true (Engine.matches e "aaab");
  Alcotest.(check bool) "aaba rejected" false (Engine.matches e "aaba");
  Alcotest.(check bool) "empty rejected" false (Engine.matches e "");
  let opt = Engine.compile (Pattern.parse_exn "colou?r") in
  Alcotest.(check bool) "color" true (Engine.matches opt "color");
  Alcotest.(check bool) "colour" true (Engine.matches opt "colour")

let test_search_known () =
  let e = Engine.compile (Pattern.parse_exn "ab") in
  let r = Engine.search e "zzabzz" in
  Alcotest.(check bool) "found" true r.Engine.found;
  Alcotest.(check int) "position" 2 r.Engine.start_pos;
  let miss = Engine.search e "zzzz" in
  Alcotest.(check bool) "not found" false miss.Engine.found;
  Alcotest.(check int) "start = length" 4 miss.Engine.start_pos;
  Alcotest.(check bool) "scan cost counted" true (miss.Engine.chars_scanned >= 4)

let test_search_leftmost () =
  let e = Engine.compile (Pattern.parse_exn "b+") in
  let r = Engine.search e "aabbbab" in
  Alcotest.(check int) "leftmost" 2 r.Engine.start_pos

let test_search_default_pattern () =
  let e = Engine.compile (Pattern.parse_exn "err(or)?[0-9]+") in
  let r = Engine.search e "xx error42 yy" in
  Alcotest.(check bool) "found" true r.Engine.found;
  Alcotest.(check int) "at 3" 3 r.Engine.start_pos;
  Alcotest.(check bool) "err7 also matches" true
    (Engine.search e "err7").Engine.found

let test_dfa_states_bounded () =
  let e = Engine.compile (Pattern.parse_exn "(a|b)*abb") in
  for _ = 1 to 50 do
    ignore (Engine.matches e "abababbbaabb")
  done;
  Alcotest.(check bool) "lazy DFA stays small" true (Engine.dfa_states e < 32)

let test_compile_string () =
  Alcotest.(check bool) "ok" true (Result.is_ok (Engine.compile_string "a+"));
  Alcotest.(check bool) "error" true (Result.is_error (Engine.compile_string "("))

(* --- Cost model --- *)

let test_cost_model_uops () =
  Alcotest.(check int) "10 chars" (8 + 60) (Cost_model.software_uops ~chars_scanned:10);
  Alcotest.(check int) "zero clamps to 1" (8 + 6)
    (Cost_model.software_uops ~chars_scanned:0)

let test_cost_model_latency () =
  Alcotest.(check int) "16 chars 1 cycle" 1
    (Cost_model.accel_compute_latency ~chars_scanned:16);
  Alcotest.(check int) "17 chars 2 cycles" 2
    (Cost_model.accel_compute_latency ~chars_scanned:17);
  Alcotest.(check int) "minimum 1" 1 (Cost_model.accel_compute_latency ~chars_scanned:0)

let test_cost_model_lines () =
  Alcotest.(check int) "within one line" 1
    (List.length (Cost_model.scanned_lines ~text_base:0 ~start:0 ~chars_scanned:64));
  Alcotest.(check int) "crossing" 2
    (List.length (Cost_model.scanned_lines ~text_base:0 ~start:60 ~chars_scanned:8))

let test_cost_model_emit_counts () =
  let b = Tca_uarch.Trace.Builder.create () in
  Cost_model.emit_search b ~text_base:0x3000_0000 ~start:0 ~chars_scanned:25;
  Alcotest.(check int) "matches software_uops"
    (Cost_model.software_uops ~chars_scanned:25)
    (Tca_uarch.Trace.Builder.length b)

(* --- Workload --- *)

let test_workload_structure () =
  let cfg =
    Tca_workloads.Regex_workload.config ~n_records:60 ~app_instrs_per_record:100
      ()
  in
  let pair, mean_scan = Tca_workloads.Regex_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "invocations" 60 pair.Meta.meta.Meta.invocations;
  Alcotest.(check bool) "regex is coarse-grained" true
    (mean_scan > 50.0 && mean_scan <= 256.0);
  Alcotest.(check bool) "line traffic" true
    (pair.Meta.meta.Meta.avg_reads_per_invocation >= 1.0)

let test_workload_validation () =
  Alcotest.check_raises "no records"
    (Invalid_argument "Regex_workload.config: n_records must be positive") (fun () ->
      ignore (Tca_workloads.Regex_workload.config ~n_records:0 ~app_instrs_per_record:10 ()));
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Regex_workload.config: negative app_instrs_per_record") (fun () ->
      ignore (Tca_workloads.Regex_workload.config ~n_records:10 ~app_instrs_per_record:(-1) ()))

let test_workload_determinism () =
  let cfg =
    Tca_workloads.Regex_workload.config ~n_records:30 ~app_instrs_per_record:40
      ~seed:9 ()
  in
  let p1, m1 = Tca_workloads.Regex_workload.generate cfg in
  let p2, m2 = Tca_workloads.Regex_workload.generate cfg in
  let open Tca_workloads in
  Alcotest.(check int) "same baseline"
    (Tca_uarch.Trace.length p1.Meta.baseline)
    (Tca_uarch.Trace.length p2.Meta.baseline);
  Alcotest.(check (float 1e-12)) "same scan" m1 m2

let test_experiment_quick () =
  let rows, mean_scan = Tca_experiments.Regex_val.run ~quick:true () in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  Alcotest.(check bool) "scan sane" true (mean_scan > 10.0);
  let sim m =
    (List.find
       (fun (r : Tca_experiments.Exp_common.validation_row) ->
         Tca_model.Mode.equal r.Tca_experiments.Exp_common.mode m)
       rows)
      .Tca_experiments.Exp_common.sim_speedup
  in
  (* At ~1300-uop granularity every mode speeds the program up — the
     paper's moderate-granularity regime. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "all modes speed up" true (sim m > 1.0))
    Tca_model.Mode.all;
  Alcotest.(check bool) "L_T best" true
    (List.for_all (fun m -> sim Tca_model.Mode.L_T >= sim m) Tca_model.Mode.all)

let () =
  Alcotest.run "tca_regex"
    [
      ( "pattern",
        [
          Alcotest.test_case "parse basics" `Quick test_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "nullable" `Quick test_nullable;
          Alcotest.test_case "char matches" `Quick test_char_matches;
          prop_to_string_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "matches known" `Quick test_matches_known;
          Alcotest.test_case "search known" `Quick test_search_known;
          Alcotest.test_case "leftmost" `Quick test_search_leftmost;
          Alcotest.test_case "default pattern" `Quick test_search_default_pattern;
          Alcotest.test_case "lazy DFA bounded" `Quick test_dfa_states_bounded;
          Alcotest.test_case "compile_string" `Quick test_compile_string;
          prop_engine_matches_reference;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "uops" `Quick test_cost_model_uops;
          Alcotest.test_case "latency" `Quick test_cost_model_latency;
          Alcotest.test_case "lines" `Quick test_cost_model_lines;
          Alcotest.test_case "emit counts" `Quick test_cost_model_emit_counts;
        ] );
      ( "workload",
        [
          Alcotest.test_case "structure" `Quick test_workload_structure;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "experiment quick" `Slow test_experiment_quick;
        ] );
    ]
