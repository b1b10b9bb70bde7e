open Tca_dgemm

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Matrix --- *)

let test_matrix_create () =
  let m = Matrix.create 4 in
  Alcotest.(check int) "dim" 4 (Matrix.dim m);
  Alcotest.(check (float 0.0)) "zeroed" 0.0 (Matrix.get m 3 3);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Matrix.create: non-positive dimension") (fun () ->
      ignore (Matrix.create 0))

let test_matrix_get_set () =
  let m = Matrix.create 3 in
  Matrix.set m 1 2 5.0;
  Alcotest.(check (float 0.0)) "set/get" 5.0 (Matrix.get m 1 2);
  Alcotest.check_raises "bounds" (Invalid_argument "Matrix: index out of range")
    (fun () -> ignore (Matrix.get m 3 0))

let test_matrix_random_range () =
  let rng = Tca_util.Prng.create 5 in
  let m = Matrix.random rng 8 in
  for i = 0 to 7 do
    for j = 0 to 7 do
      let x = Matrix.get m i j in
      Alcotest.(check bool) "in [-1, 1)" true (x >= -1.0 && x < 1.0)
    done
  done

let test_matrix_equal_diff () =
  let a = Matrix.create 2 and b = Matrix.create 2 in
  Matrix.set b 0 0 1e-12;
  Alcotest.(check bool) "within eps" true (Matrix.equal a b);
  Matrix.set b 0 0 0.5;
  Alcotest.(check bool) "beyond eps" false (Matrix.equal a b);
  Alcotest.(check (float 1e-12)) "max diff" 0.5 (Matrix.max_abs_diff a b)

let test_multiply_naive_known () =
  (* [[1 2][3 4]] * [[5 6][7 8]] = [[19 22][43 50]] *)
  let a = Matrix.create 2 and b = Matrix.create 2 in
  Matrix.set a 0 0 1.0;
  Matrix.set a 0 1 2.0;
  Matrix.set a 1 0 3.0;
  Matrix.set a 1 1 4.0;
  Matrix.set b 0 0 5.0;
  Matrix.set b 0 1 6.0;
  Matrix.set b 1 0 7.0;
  Matrix.set b 1 1 8.0;
  let c = Matrix.multiply_naive a b in
  Alcotest.(check (float 1e-12)) "c00" 19.0 (Matrix.get c 0 0);
  Alcotest.(check (float 1e-12)) "c01" 22.0 (Matrix.get c 0 1);
  Alcotest.(check (float 1e-12)) "c10" 43.0 (Matrix.get c 1 0);
  Alcotest.(check (float 1e-12)) "c11" 50.0 (Matrix.get c 1 1)

let test_identity () =
  let rng = Tca_util.Prng.create 9 in
  let a = Matrix.random rng 8 in
  let id = Matrix.create 8 in
  for i = 0 to 7 do
    Matrix.set id i i 1.0
  done;
  Alcotest.(check bool) "A * I = A" true
    (Matrix.equal ~eps:1e-12 (Matrix.multiply_naive a id) a)

let test_blocked_equals_naive () =
  let rng = Tca_util.Prng.create 11 in
  let a = Matrix.random rng 16 and b = Matrix.random rng 16 in
  let reference = Matrix.multiply_naive a b in
  List.iter
    (fun block ->
      Alcotest.(check bool)
        (Printf.sprintf "block %d" block)
        true
        (Matrix.equal ~eps:1e-9 (Matrix.multiply_blocked ~block a b) reference))
    [ 2; 4; 8; 16 ]

let test_blocked_invalid () =
  let a = Matrix.create 6 in
  Alcotest.check_raises "block must divide"
    (Invalid_argument "Matrix.multiply_blocked: block must divide dimension")
    (fun () -> ignore (Matrix.multiply_blocked ~block:4 a a))

let prop_blocked_equals_naive =
  qtest "blocked = naive on random matrices"
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, block_idx) ->
      let rng = Tca_util.Prng.create seed in
      let a = Matrix.random rng 8 and b = Matrix.random rng 8 in
      let block = List.nth [ 2; 4; 8 ] block_idx in
      Matrix.equal ~eps:1e-9
        (Matrix.multiply_blocked ~block a b)
        (Matrix.multiply_naive a b))

let test_addr_of_row_major () =
  Alcotest.(check int) "origin" 1000 (Matrix.addr_of ~base:1000 ~n:4 ~i:0 ~j:0);
  Alcotest.(check int) "next column" 1008 (Matrix.addr_of ~base:1000 ~n:4 ~i:0 ~j:1);
  Alcotest.(check int) "next row" 1032 (Matrix.addr_of ~base:1000 ~n:4 ~i:1 ~j:0)

let test_row_segment_lines () =
  (* 8 doubles starting at a line boundary: exactly one line. *)
  Alcotest.(check int) "aligned segment" 1
    (List.length (Matrix.row_segment_lines ~base:0 ~n:64 ~i:0 ~j:0 ~elems:8));
  (* Straddling: elements 6..13 cross the 64-byte boundary. *)
  Alcotest.(check int) "straddles two lines" 2
    (List.length (Matrix.row_segment_lines ~base:0 ~n:64 ~i:0 ~j:6 ~elems:8));
  Alcotest.check_raises "empty"
    (Invalid_argument "Matrix.row_segment_lines: empty segment") (fun () ->
      ignore (Matrix.row_segment_lines ~base:0 ~n:64 ~i:0 ~j:0 ~elems:0))

(* --- Mma --- *)

let test_mma_dims () =
  Alcotest.(check (list int)) "2 4 8" [ 2; 4; 8 ] Mma.supported_dims;
  Alcotest.(check int) "latency" 8 (Mma.compute_latency 8)

let test_mma_update_known () =
  (* C += A * B on a 2x2 corner with known values, plus accumulation. *)
  let a = Matrix.create 4 and b = Matrix.create 4 and c = Matrix.create 4 in
  Matrix.set a 0 0 1.0;
  Matrix.set a 0 1 2.0;
  Matrix.set a 1 0 3.0;
  Matrix.set a 1 1 4.0;
  Matrix.set b 0 0 5.0;
  Matrix.set b 0 1 6.0;
  Matrix.set b 1 0 7.0;
  Matrix.set b 1 1 8.0;
  Matrix.set c 0 0 100.0;
  Mma.update ~c ~a ~b ~i:0 ~j:0 ~k:0 ~dim:2;
  Alcotest.(check (float 1e-12)) "accumulates" 119.0 (Matrix.get c 0 0);
  Alcotest.(check (float 1e-12)) "c01" 22.0 (Matrix.get c 0 1)

let test_mma_update_out_of_range () =
  let a = Matrix.create 4 in
  Alcotest.check_raises "range" (Invalid_argument "Mma.update: block out of range")
    (fun () -> Mma.update ~c:a ~a ~b:a ~i:3 ~j:0 ~k:0 ~dim:2)

let test_mma_multiply_equals_naive () =
  let rng = Tca_util.Prng.create 13 in
  let a = Matrix.random rng 32 and b = Matrix.random rng 32 in
  let reference = Matrix.multiply_naive a b in
  List.iter
    (fun dim ->
      Alcotest.(check bool)
        (Printf.sprintf "dim %d" dim)
        true
        (Matrix.equal ~eps:1e-9
           (Mma.multiply_blocked_mma ~block:32 ~dim a b)
           reference))
    Mma.supported_dims

let test_mma_multiply_invalid () =
  let a = Matrix.create 32 in
  Alcotest.check_raises "dim divides block"
    (Invalid_argument "Mma.multiply_blocked_mma: dim must divide block")
    (fun () -> ignore (Mma.multiply_blocked_mma ~block:32 ~dim:5 a a))

let prop_mma_equals_naive =
  qtest ~count:20 "MMA decomposition = naive on random 16x16"
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, dim_idx) ->
      let rng = Tca_util.Prng.create seed in
      let a = Matrix.random rng 16 and b = Matrix.random rng 16 in
      let dim = List.nth Mma.supported_dims dim_idx in
      Matrix.equal ~eps:1e-9
        (Mma.multiply_blocked_mma ~block:16 ~dim a b)
        (Matrix.multiply_naive a b))

let () =
  Alcotest.run "tca_dgemm"
    [
      ( "matrix",
        [
          Alcotest.test_case "create" `Quick test_matrix_create;
          Alcotest.test_case "get/set" `Quick test_matrix_get_set;
          Alcotest.test_case "random range" `Quick test_matrix_random_range;
          Alcotest.test_case "equal/diff" `Quick test_matrix_equal_diff;
          Alcotest.test_case "naive known" `Quick test_multiply_naive_known;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "blocked = naive" `Quick test_blocked_equals_naive;
          Alcotest.test_case "blocked invalid" `Quick test_blocked_invalid;
          prop_blocked_equals_naive;
          Alcotest.test_case "addr_of layout" `Quick test_addr_of_row_major;
          Alcotest.test_case "row segment lines" `Quick test_row_segment_lines;
        ] );
      ( "mma",
        [
          Alcotest.test_case "dims and counts" `Quick test_mma_dims;
          Alcotest.test_case "update known" `Quick test_mma_update_known;
          Alcotest.test_case "update range" `Quick test_mma_update_out_of_range;
          Alcotest.test_case "multiply = naive" `Quick test_mma_multiply_equals_naive;
          Alcotest.test_case "invalid dims" `Quick test_mma_multiply_invalid;
          prop_mma_equals_naive;
        ] );
    ]
