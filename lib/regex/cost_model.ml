open Tca_uarch

(* Per-search setup (pattern/table base loads, state init), then
   software μops per inspected character. *)
let setup_uops = 8
let uops_per_char = 6

let software_uops ~chars_scanned =
  setup_uops + (uops_per_char * max 1 chars_scanned)

(* TCA scan throughput, bytes per cycle. *)
let chars_per_cycle = 16

let accel_compute_latency ~chars_scanned =
  max 1 ((chars_scanned + chars_per_cycle - 1) / chars_per_cycle)

(* Registers 60..62: clear of every other generator. *)
let result_reg = 60
let r_state = 61
let r_char = 62

let scan_branch_pc = 0x6800

(* Transition tables live in a small dedicated region (L1-resident, like
   a real DFA's hot rows). *)
let table_base = 0x0030_0000

let scanned_lines ~text_base ~start ~chars_scanned =
  let first = text_base + start in
  let last = first + max 1 chars_scanned - 1 in
  let rec collect acc line =
    if line > last land lnot 63 then List.rev acc
    else collect (line :: acc) (line + 64)
  in
  collect [] (first land lnot 63)

let emit_search b ~text_base ~start ~chars_scanned =
  if chars_scanned < 0 then invalid_arg "Cost_model.emit_search: negative scan";
  (* Setup: load table base, init state, compute start address. *)
  Trace.Builder.add b (Isa.load ~dst:r_state ~addr:table_base ());
  for _ = 1 to setup_uops - 2 do
    Trace.Builder.add b (Isa.int_alu ~src1:r_state ~dst:r_state ())
  done;
  Trace.Builder.add b (Isa.int_alu ~dst:result_reg ());
  let n = max 1 chars_scanned in
  for i = 0 to n - 1 do
    (* load byte; index arithmetic; transition load (state-dependent);
       advance; accept-check branch (taken while scanning). *)
    Trace.Builder.add b
      (Isa.load ~base:result_reg ~dst:r_char ~addr:(text_base + start + i) ());
    Trace.Builder.add b
      (Isa.int_alu ~src1:r_char ~src2:r_state ~dst:r_state ());
    Trace.Builder.add b
      (Isa.load ~base:r_state ~dst:r_state
         ~addr:(table_base + 64 + (8 * ((start + i) mod 256)))
         ());
    Trace.Builder.add b (Isa.int_alu ~src1:result_reg ~dst:result_reg ());
    Trace.Builder.add b (Isa.int_alu ~src1:r_state ~dst:r_state ());
    Trace.Builder.add_at_site b
      (Isa.branch ~pc:scan_branch_pc ~src1:r_state ~taken:(i < n - 1) ())
  done

let emit_search_accel b ~text_base ~start ~chars_scanned =
  if chars_scanned < 0 then
    invalid_arg "Cost_model.emit_search_accel: negative scan";
  let lines = scanned_lines ~text_base ~start ~chars_scanned in
  Trace.Builder.add b
    (Isa.accel ~dst:result_reg
       ~compute_latency:(accel_compute_latency ~chars_scanned)
       ~reads:(Array.of_list lines) ~writes:[||] ())
