open Tca_uarch

(* μops to compute the hash and initial index; per inspected bucket
   (load key, compare, branch, advance); after the loop (load the value,
   produce the result). *)
let hash_uops = 6
let uops_per_probe = 4
let tail_uops = 3
let software_uops ~probes = hash_uops + (uops_per_probe * probes) + tail_uops
let accel_compute_latency = 2

(* Registers 56..59; clear of the app window, the heap sequences and the
   dgemm kernel. *)
let result_reg = 56
let r_idx = 57
let r_key = 58

(* The probe loop branch is one static site (the loop back edge),
   biased taken for long probe chains and not-taken for 1-probe hits —
   predictors see realistic behaviour. *)
let probe_branch_pc = 0x6000

let emit_find b ~bucket_addrs =
  if bucket_addrs = [] then invalid_arg "Cost_model.emit_find: no buckets";
  (* Hash computation: dependent scramble chain. *)
  Trace.Builder.add b (Isa.int_alu ~dst:r_idx ());
  for _ = 1 to hash_uops - 1 do
    Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ())
  done;
  let n = List.length bucket_addrs in
  List.iteri
    (fun i addr ->
      (* Load the bucket key (address depends on the index register),
         compare, loop branch (taken while probing continues), advance. *)
      Trace.Builder.add b (Isa.load ~base:r_idx ~dst:r_key ~addr ());
      Trace.Builder.add b (Isa.int_alu ~src1:r_key ~src2:r_idx ~dst:r_key ());
      Trace.Builder.add_at_site b
        (Isa.branch ~pc:probe_branch_pc ~src1:r_key ~taken:(i < n - 1) ());
      Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ()))
    bucket_addrs;
  (* Tail: load the value from the final bucket, produce the result. *)
  let last = List.nth bucket_addrs (n - 1) in
  Trace.Builder.add b (Isa.load ~base:r_idx ~dst:result_reg ~addr:(last + 8) ());
  Trace.Builder.add b (Isa.int_alu ~src1:result_reg ~dst:result_reg ());
  Trace.Builder.add b (Isa.int_alu ~src1:result_reg ~dst:result_reg ())

let line_of addr = addr land lnot 63

let emit_find_accel b ~bucket_addrs =
  if bucket_addrs = [] then invalid_arg "Cost_model.emit_find_accel: no buckets";
  let lines = List.sort_uniq compare (List.map line_of bucket_addrs) in
  Trace.Builder.add b
    (Isa.accel ~dst:result_reg ~compute_latency:accel_compute_latency
       ~reads:(Array.of_list lines) ~writes:[||] ())
