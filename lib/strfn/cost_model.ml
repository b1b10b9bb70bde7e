open Tca_uarch

(* Argument moves and pointer setup, then μops per inspected byte (4 for
   single-string scans; strcmp's byte count already covers both
   streams). *)
let setup_uops = 5
let uops_per_byte = 4

let software_uops ~bytes_inspected =
  setup_uops + (uops_per_byte * max 1 bytes_inspected)

(* One XMM-width comparison per cycle. *)
let bytes_per_cycle = 16

let accel_compute_latency ~bytes_inspected =
  max 1 ((bytes_inspected + bytes_per_cycle - 1) / bytes_per_cycle)

(* Register 44/45: below the heap (46+) and codegen windows. *)
let result_reg = 44
let r_ptr = 45

let loop_branch_pc = 0x7000

let emit_call b ~addrs =
  if addrs = [] then invalid_arg "Cost_model.emit_call: empty scan";
  Trace.Builder.add b (Isa.int_alu ~dst:r_ptr ());
  for _ = 1 to setup_uops - 2 do
    Trace.Builder.add b (Isa.int_alu ~src1:r_ptr ~dst:r_ptr ())
  done;
  Trace.Builder.add b (Isa.int_alu ~dst:result_reg ());
  let n = List.length addrs in
  List.iteri
    (fun i addr ->
      Trace.Builder.add b (Isa.load ~base:r_ptr ~dst:result_reg ~addr ());
      Trace.Builder.add b (Isa.int_alu ~src1:result_reg ~dst:result_reg ());
      Trace.Builder.add_at_site b
        (Isa.branch ~pc:loop_branch_pc ~src1:result_reg ~taken:(i < n - 1) ());
      Trace.Builder.add b (Isa.int_alu ~src1:r_ptr ~dst:r_ptr ()))
    addrs

let lines_of_addrs addrs =
  List.sort_uniq compare (List.map (fun a -> a land lnot 63) addrs)

let emit_call_accel b ~addrs ~bytes_inspected =
  if addrs = [] then invalid_arg "Cost_model.emit_call_accel: empty scan";
  Trace.Builder.add b
    (Isa.accel ~dst:result_reg
       ~compute_latency:(accel_compute_latency ~bytes_inspected)
       ~reads:(Array.of_list (lines_of_addrs addrs))
       ~writes:[||] ())
