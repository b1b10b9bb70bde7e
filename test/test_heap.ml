open Tca_heap

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Size_class --- *)

let test_size_class_boundaries () =
  Alcotest.(check (option int)) "1 byte" (Some 0) (Size_class.of_size 1);
  Alcotest.(check (option int)) "32" (Some 0) (Size_class.of_size 32);
  Alcotest.(check (option int)) "33" (Some 1) (Size_class.of_size 33);
  Alcotest.(check (option int)) "64" (Some 1) (Size_class.of_size 64);
  Alcotest.(check (option int)) "65" (Some 2) (Size_class.of_size 65);
  Alcotest.(check (option int)) "96" (Some 2) (Size_class.of_size 96);
  Alcotest.(check (option int)) "97" (Some 3) (Size_class.of_size 97);
  Alcotest.(check (option int)) "128" (Some 3) (Size_class.of_size 128);
  Alcotest.(check (option int)) "129 is large" None (Size_class.of_size 129)

let test_size_class_invalid () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Size_class.of_size: non-positive size") (fun () ->
      ignore (Size_class.of_size 0))

let test_class_bytes () =
  Alcotest.(check int) "class 0" 32 (Size_class.class_bytes 0);
  Alcotest.(check int) "class 3" 128 (Size_class.class_bytes 3);
  Alcotest.check_raises "range"
    (Invalid_argument "Size_class: class index out of range") (fun () ->
      ignore (Size_class.class_bytes 4))

let prop_class_range_consistent =
  qtest "class_range brackets of_size"
    QCheck.(int_range 1 128)
    (fun size ->
      match Size_class.of_size size with
      | None -> false
      | Some cls ->
          let lo = if cls = 0 then 1 else Size_class.class_bytes (cls - 1) + 1 in
          size >= lo && size <= Size_class.class_bytes cls)

(* --- Free_list --- *)

let test_free_list_lifo () =
  let fl = Free_list.create () in
  Free_list.push fl 1;
  Free_list.push fl 2;
  Alcotest.(check (option int)) "pop newest" (Some 2) (Free_list.pop fl);
  Alcotest.(check (option int)) "pop older" (Some 1) (Free_list.pop fl);
  Alcotest.(check (option int)) "empty" None (Free_list.pop fl);
  Alcotest.(check bool) "is_empty" true (Free_list.is_empty fl)

let test_free_list_mem_to_list () =
  let fl = Free_list.create () in
  List.iter (Free_list.push fl) [ 10; 20; 30 ];
  Alcotest.(check (list int)) "head first" [ 30; 20; 10 ] (Free_list.to_list fl)

(* --- Tcmalloc --- *)

let test_malloc_basic () =
  let h = Tcmalloc.create () in
  let a = Tcmalloc.malloc h 20 in
  Alcotest.(check (option int)) "class 0" (Some 0) (Tcmalloc.class_of_block h a);
  Alcotest.(check int) "32 live bytes" 32 (Tcmalloc.live_bytes h)

let test_malloc_invalid () =
  let h = Tcmalloc.create () in
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Tcmalloc.malloc: non-positive size") (fun () ->
      ignore (Tcmalloc.malloc h 0))

let test_free_reuse_lifo () =
  let h = Tcmalloc.create () in
  let a = Tcmalloc.malloc h 32 in
  let b = Tcmalloc.malloc h 32 in
  Tcmalloc.free h a;
  Tcmalloc.free h b;
  Alcotest.(check bool) "would hit" true (Tcmalloc.malloc_hits_free_list h 16);
  (* LIFO: the most recently freed block comes back first. *)
  Alcotest.(check int) "reuse b first" b (Tcmalloc.malloc h 32);
  Alcotest.(check int) "then a" a (Tcmalloc.malloc h 32)

let test_double_free_rejected () =
  let h = Tcmalloc.create () in
  let a = Tcmalloc.malloc h 40 in
  Tcmalloc.free h a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Tcmalloc.free: address not allocated") (fun () ->
      Tcmalloc.free h a)

let test_free_unknown_rejected () =
  let h = Tcmalloc.create () in
  Alcotest.check_raises "unknown"
    (Invalid_argument "Tcmalloc.free: address not allocated") (fun () ->
      Tcmalloc.free h 0xdead)

let test_large_path () =
  let h = Tcmalloc.create () in
  let a = Tcmalloc.malloc h 4096 in
  Alcotest.(check (option int)) "not a class block" None
    (Tcmalloc.class_of_block h a);
  Alcotest.(check bool) "64-aligned" true (Tcmalloc.live_bytes h mod 64 = 0);
  Tcmalloc.free h a;
  Alcotest.(check int) "bytes returned" 0 (Tcmalloc.live_bytes h)

let test_out_of_memory () =
  let h = Tcmalloc.create () in
  (* Fill the 16 MB arena through the large-object path. *)
  ignore (Tcmalloc.malloc h (16 * 1024 * 1024));
  Alcotest.(check bool) "raises OOM" true
    (try
       ignore (Tcmalloc.malloc h 128);
       false
     with Tcmalloc.Out_of_memory -> true)

let test_freelist_head_addrs () =
  let h = Tcmalloc.create ~base:0x1000000 () in
  let addrs =
    List.init Size_class.num_classes (Tcmalloc.freelist_head_addr h)
  in
  Alcotest.(check int) "distinct" Size_class.num_classes
    (List.length (List.sort_uniq compare addrs));
  List.iter
    (fun a -> Alcotest.(check bool) "below arena" true (a < 0x1000000))
    addrs

let test_no_overlap_sequence () =
  let h = Tcmalloc.create () in
  let rng = Tca_util.Prng.create 77 in
  let live = ref [] in
  for _ = 1 to 2000 do
    if !live = [] || Tca_util.Prng.bool rng then begin
      let size = 1 + Tca_util.Prng.int rng 128 in
      let addr = Tcmalloc.malloc h size in
      let bytes =
        Size_class.class_bytes (Option.get (Size_class.of_size size))
      in
      live := (addr, bytes) :: !live
    end
    else
      match !live with
      | (addr, _) :: rest ->
          Tcmalloc.free h addr;
          live := rest
      | [] -> ()
  done;
  (* No two live blocks overlap. *)
  let sorted = List.sort compare !live in
  let rec check = function
    | (a1, b1) :: ((a2, _) :: _ as rest) ->
        Alcotest.(check bool) "disjoint" true (a1 + b1 <= a2);
        check rest
    | _ -> ()
  in
  check sorted;
  match Tcmalloc.check_invariants h with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let prop_invariants_random_ops =
  qtest ~count:50 "allocator invariants hold under random ops"
    QCheck.(small_int)
    (fun seed ->
      let h = Tcmalloc.create () in
      let rng = Tca_util.Prng.create seed in
      let live = ref [] in
      for _ = 1 to 500 do
        if !live = [] || Tca_util.Prng.bernoulli rng 0.6 then
          live := Tcmalloc.malloc h (1 + Tca_util.Prng.int rng 200) :: !live
        else
          match !live with
          | a :: rest ->
              Tcmalloc.free h a;
              live := rest
          | [] -> ()
      done;
      Tcmalloc.check_invariants h = Ok ())

(* --- Cost_model --- *)

let test_cost_model_counts () =
  let b = Tca_uarch.Trace.Builder.create () in
  let rng = Tca_util.Prng.create 1 in
  Cost_model.emit_malloc b ~rng ~head_addr:0x1000;
  Alcotest.(check int) "malloc is 69 uops" Cost_model.malloc_uops
    (Tca_uarch.Trace.Builder.length b);
  Cost_model.emit_free b ~rng ~head_addr:0x1000 ~ptr_reg:46;
  Alcotest.(check int) "free adds 37 uops"
    (Cost_model.malloc_uops + Cost_model.free_uops)
    (Tca_uarch.Trace.Builder.length b);
  Alcotest.(check int) "published counts" 69 Cost_model.malloc_uops;
  Alcotest.(check int) "published counts" 37 Cost_model.free_uops

let test_cost_model_traces_valid () =
  let b = Tca_uarch.Trace.Builder.create () in
  let rng = Tca_util.Prng.create 2 in
  for _ = 1 to 20 do
    Cost_model.emit_malloc b ~rng ~head_addr:0x1000;
    Cost_model.emit_free b ~rng ~head_addr:0x1000 ~ptr_reg:46
  done;
  let t = Tca_uarch.Trace.Builder.build b in
  Alcotest.(check int) "trace length" (20 * (69 + 37)) (Tca_uarch.Trace.length t)

let test_cost_model_result_reg () =
  let b = Tca_uarch.Trace.Builder.create () in
  let rng = Tca_util.Prng.create 3 in
  Cost_model.emit_malloc b ~rng ~head_addr:0x1000;
  let t = Tca_uarch.Trace.Builder.build b in
  let last = Tca_uarch.Trace.get t (Tca_uarch.Trace.length t - 1) in
  Alcotest.(check int) "pointer lands in result_reg" Cost_model.result_reg
    last.Tca_uarch.Isa.dst

let test_cost_model_accel () =
  let b = Tca_uarch.Trace.Builder.create () in
  Cost_model.emit_malloc_accel b;
  Cost_model.emit_free_accel b ~ptr_reg:46;
  let t = Tca_uarch.Trace.Builder.build b in
  Alcotest.(check int) "two instructions" 2 (Tca_uarch.Trace.length t);
  (match (Tca_uarch.Trace.get t 0).Tca_uarch.Isa.op with
  | Tca_uarch.Isa.Accel a ->
      Alcotest.(check int) "single cycle" Cost_model.accel_latency
        a.Tca_uarch.Isa.compute_latency
  | _ -> Alcotest.fail "expected accel");
  Alcotest.(check int) "malloc TCA writes result_reg" Cost_model.result_reg
    (Tca_uarch.Trace.get t 0).Tca_uarch.Isa.dst;
  Alcotest.(check int) "free TCA consumes pointer" 46
    (Tca_uarch.Trace.get t 1).Tca_uarch.Isa.src1

let test_cost_model_branch_site () =
  (* The fast-path branch must use a stable site PC so predictors train. *)
  let pcs =
    List.init 3 (fun i ->
        let b = Tca_uarch.Trace.Builder.create () in
        let rng = Tca_util.Prng.create i in
        (* Shift the sequence start to prove the branch PC is absolute. *)
        for _ = 0 to i do
          Tca_uarch.Trace.Builder.add b (Tca_uarch.Isa.int_alu ~dst:0 ())
        done;
        Cost_model.emit_malloc b ~rng ~head_addr:0x1000;
        let t = Tca_uarch.Trace.Builder.build b in
        let branch_pc = ref (-1) in
        Tca_uarch.Trace.iter
          (fun ins ->
            if ins.Tca_uarch.Isa.op = Tca_uarch.Isa.Branch then
              branch_pc := ins.Tca_uarch.Isa.pc)
          t;
        !branch_pc)
  in
  match pcs with
  | [ a; b; c ] ->
      Alcotest.(check bool) "stable across calls" true (a = b && b = c && a >= 0)
  | _ -> Alcotest.fail "expected three samples"

let () =
  Alcotest.run "tca_heap"
    [
      ( "size_class",
        [
          Alcotest.test_case "boundaries" `Quick test_size_class_boundaries;
          Alcotest.test_case "invalid" `Quick test_size_class_invalid;
          Alcotest.test_case "class bytes" `Quick test_class_bytes;
          prop_class_range_consistent;
        ] );
      ( "free_list",
        [
          Alcotest.test_case "lifo" `Quick test_free_list_lifo;
          Alcotest.test_case "mem/to_list" `Quick test_free_list_mem_to_list;
        ] );
      ( "tcmalloc",
        [
          Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
          Alcotest.test_case "malloc invalid" `Quick test_malloc_invalid;
          Alcotest.test_case "free/reuse LIFO" `Quick test_free_reuse_lifo;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "free unknown" `Quick test_free_unknown_rejected;
          Alcotest.test_case "large path" `Quick test_large_path;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "freelist head addrs" `Quick test_freelist_head_addrs;
          Alcotest.test_case "no overlap" `Quick test_no_overlap_sequence;
          prop_invariants_random_ops;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "uop counts" `Quick test_cost_model_counts;
          Alcotest.test_case "traces valid" `Quick test_cost_model_traces_valid;
          Alcotest.test_case "result register" `Quick test_cost_model_result_reg;
          Alcotest.test_case "accel forms" `Quick test_cost_model_accel;
          Alcotest.test_case "stable branch site" `Quick test_cost_model_branch_site;
        ] );
    ]
