open Tca_uarch
open Tca_dgemm

type config = {
  n : int;
  block : int;
  seed : int;
  a_base : int;
  b_base : int;
  c_base : int;
}

let config ?(block = 32) ?(seed = 1) ~n () =
  if n <= 0 then invalid_arg "Dgemm_workload.config: n must be positive";
  if block <= 0 || n mod block <> 0 then
    invalid_arg "Dgemm_workload.config: block must divide n";
  let bytes = 8 * n * n in
  let round_up x = (x + 4095) / 4096 * 4096 in
  let a_base = 0x0200_0000 in
  let b_base = a_base + round_up bytes in
  let c_base = b_base + round_up bytes in
  { n; block; seed; a_base; b_base; c_base }

(* Registers dedicated to the kernel (clear of Codegen's window). *)
let r_a = 30
let r_b = 31
let r_mul = 32
let r_acc = 33
let r_idx = 34

(* Static branch sites for the kernel loops: always-taken except the last
   iteration, which real loop branches also exhibit. *)
let k_loop_pc = 0x4000
let j_loop_pc = 0x4004
let sk_loop_pc = 0x4008

let unroll = 4

let addr cfg base i j = Matrix.addr_of ~base ~n:cfg.n ~i ~j

(* Inner kernel for one output element over one k-block:
   load C, then per k {load A, load B, multiply, accumulate} with loop
   overhead per [unroll] iterations, then store C. *)
let emit_element_kernel cfg b ~i ~j ~k0 =
  Trace.Builder.add b (Isa.load ~dst:r_acc ~addr:(addr cfg cfg.c_base i j) ());
  for ku = 0 to (cfg.block / unroll) - 1 do
    for u = 0 to unroll - 1 do
      let k = k0 + (ku * unroll) + u in
      Trace.Builder.add b (Isa.load ~dst:r_a ~addr:(addr cfg cfg.a_base i k) ());
      Trace.Builder.add b (Isa.load ~dst:r_b ~addr:(addr cfg cfg.b_base k j) ());
      Trace.Builder.add b (Isa.fp_mult ~src1:r_a ~src2:r_b ~dst:r_mul ());
      Trace.Builder.add b (Isa.fp_alu ~src1:r_mul ~src2:r_acc ~dst:r_acc ())
    done;
    Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ());
    Trace.Builder.add_at_site b
      (Isa.branch ~pc:k_loop_pc ~src1:r_idx
         ~taken:(ku < (cfg.block / unroll) - 1)
         ())
  done;
  Trace.Builder.add b (Isa.store ~src:r_acc ~addr:(addr cfg cfg.c_base i j) ());
  (* j-loop overhead. *)
  Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ());
  Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ());
  Trace.Builder.add_at_site b (Isa.branch ~pc:j_loop_pc ~src1:r_idx ~taken:true ())

let kernel_uops_per_element cfg =
  1 (* load C *)
  + (cfg.block * 4) (* MAC loads and FP ops *)
  + (cfg.block / unroll * 2) (* k-loop overhead *)
  + 1 (* store C *)
  + 3 (* j-loop overhead *)

let for_each_block cfg f =
  let nb = cfg.n / cfg.block in
  for bi = 0 to nb - 1 do
    for bj = 0 to nb - 1 do
      for bk = 0 to nb - 1 do
        f ~i0:(bi * cfg.block) ~j0:(bj * cfg.block) ~k0:(bk * cfg.block)
      done
    done
  done

let baseline cfg =
  let per_block = cfg.block * cfg.block * kernel_uops_per_element cfg in
  let nb = cfg.n / cfg.block in
  let b = Trace.Builder.create ~capacity:(per_block * nb * nb * nb) () in
  (* Initialize the loop-counter register before any kernel reads it. *)
  Trace.Builder.add b (Isa.int_alu ~dst:r_idx ());
  for_each_block cfg (fun ~i0 ~j0 ~k0 ->
      for i = i0 to i0 + cfg.block - 1 do
        for j = j0 to j0 + cfg.block - 1 do
          emit_element_kernel cfg b ~i ~j ~k0
        done
      done);
  Trace.Builder.build b

(* Distinct cache lines of a [dim x dim] sub-block at (i, j). *)
let block_lines cfg base ~i ~j ~dim =
  let lines = ref [] in
  for r = 0 to dim - 1 do
    lines :=
      List.rev_append
        (Matrix.row_segment_lines ~base ~n:cfg.n ~i:(i + r) ~j ~elems:dim)
        !lines
  done;
  List.sort_uniq compare !lines

let accelerated cfg ~dim =
  if not (List.mem dim Mma.supported_dims) then
    invalid_arg "Dgemm_workload.accelerated: unsupported dim";
  if cfg.block mod dim <> 0 then
    invalid_arg "Dgemm_workload.accelerated: dim must divide block";
  let b = Trace.Builder.create () in
  (* Same loop-counter prologue as the baseline build. *)
  Trace.Builder.add b (Isa.int_alu ~dst:r_idx ());
  let nd = cfg.block / dim in
  for_each_block cfg (fun ~i0 ~j0 ~k0 ->
      for si = 0 to nd - 1 do
        for sj = 0 to nd - 1 do
          (* Start a fresh accumulation chain for this C sub-block. *)
          Trace.Builder.add b (Isa.int_alu ~dst:r_acc ());
          for sk = 0 to nd - 1 do
            let i = i0 + (si * dim)
            and j = j0 + (sj * dim)
            and k = k0 + (sk * dim) in
            (* Addressing overhead the accelerated code still executes. *)
            Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_idx ());
            Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_a ());
            Trace.Builder.add b (Isa.int_alu ~src1:r_idx ~dst:r_b ());
            let reads =
              block_lines cfg cfg.a_base ~i ~j:k ~dim
              @ block_lines cfg cfg.b_base ~i:k ~j ~dim
              @ block_lines cfg cfg.c_base ~i ~j ~dim
            in
            let writes = block_lines cfg cfg.c_base ~i ~j ~dim in
            (* The chain through r_acc orders accumulations into the same
               C sub-block, as hardware dependence checks would. *)
            Trace.Builder.add b
              (Isa.accel ~src1:r_acc ~dst:r_acc
                 ~compute_latency:(Mma.compute_latency dim)
                 ~reads:(Array.of_list reads) ~writes:(Array.of_list writes)
                 ());
            Trace.Builder.add_at_site b
              (Isa.branch ~pc:sk_loop_pc ~src1:r_idx ~taken:(sk < nd - 1) ())
          done
        done
      done);
  Trace.Builder.build b

let pair cfg ~dim =
  let base = baseline cfg in
  let accel = accelerated cfg ~dim in
  let fi = float_of_int in
  (* Fresh (non-L1-resident) lines per invocation: the A and B blocks are
     brought in once per block-product and then reused by the
     (block/dim)^3 invocations of that product; the C block stays
     resident across the bk sweep. *)
  let lines_per_block_matrix = cfg.block * cfg.block * 8 / 64 in
  let invocations_per_product =
    let nd = cfg.block / dim in
    nd * nd * nd
  in
  let fresh =
    fi (2 * lines_per_block_matrix) /. fi invocations_per_product
  in
  Meta.make
    ~name:(Printf.sprintf "dgemm-%dx%d" dim dim)
    ~baseline:base ~accelerated:accel
    ~fresh_lines:(fun ~reads:_ -> fresh)
    ~compute_latency:(Mma.compute_latency dim) ()
