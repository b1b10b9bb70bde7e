open Tca_uarch

type kind = True_reg | True_mem | Mem_data | Anti | Output

let kind_name = function
  | True_reg -> "true_reg"
  | True_mem -> "true_mem"
  | Mem_data -> "mem_data"
  | Anti -> "anti"
  | Output -> "output"

type stats = {
  nodes : int;
  true_reg : int;
  true_mem : int;
  mem_data : int;
  anti : int;
  output : int;
  depth : int;
}

type t = {
  n : int;
  preds : (int * kind) list array;
  stats : stats;
}

let length t = t.n
let preds t i = t.preds.(i)
let stats t = t.stats

let src_regs (ins : Isa.instr) =
  let r1 = ins.Isa.src1 and r2 = ins.Isa.src2 in
  if r1 = Isa.no_reg then if r2 = Isa.no_reg then [] else [ r2 ]
  else if r2 = Isa.no_reg || r2 = r1 then [ r1 ]
  else [ r1; r2 ]

let build ?(line_bytes = 64) instrs =
  let n = Array.length instrs in
  let line a = a / line_bytes in
  let preds = Array.make n [] in
  let true_reg = ref 0
  and true_mem = ref 0
  and mem_data = ref 0
  and anti = ref 0
  and output = ref 0 in
  let add_edge src dst kind =
    preds.(dst) <- (src, kind) :: preds.(dst);
    incr
      (match kind with
      | True_reg -> true_reg
      | True_mem -> true_mem
      | Mem_data -> mem_data
      | Anti -> anti
      | Output -> output)
  in
  (* Last-writer / readers-since-last-write per architectural register. *)
  let last_writer = Array.make Isa.num_arch_regs (-1) in
  let readers_since = Array.make Isa.num_arch_regs [] in
  (* Youngest store per exact address (the simulator's forwarding match),
     and youngest writer (store or accelerator write) per cache line for
     the dataflow-only edges. *)
  let last_store : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let line_writer : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let line_accel_writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* Timing depth (in nodes) ending at each instruction. *)
  let depth_at = Array.make (max n 1) 1 in
  let max_depth = ref (if n = 0 then 0 else 1) in
  Array.iteri
    (fun i (ins : Isa.instr) ->
      let timing_pred p =
        if depth_at.(p) + 1 > depth_at.(i) then depth_at.(i) <- depth_at.(p) + 1
      in
      List.iter
        (fun r ->
          let w = last_writer.(r) in
          if w >= 0 then begin
            add_edge w i True_reg;
            timing_pred w
          end;
          readers_since.(r) <- i :: readers_since.(r))
        (src_regs ins);
      (match ins.Isa.op with
      | Isa.Load ->
          (match Hashtbl.find_opt last_store ins.Isa.addr with
          | Some st ->
              add_edge st i True_mem;
              timing_pred st
          | None -> ());
          (match Hashtbl.find_opt line_accel_writer (line ins.Isa.addr) with
          | Some w -> add_edge w i Mem_data
          | None -> ())
      | Isa.Store ->
          Hashtbl.replace last_store ins.Isa.addr i;
          Hashtbl.replace line_writer (line ins.Isa.addr) i
      | Isa.Accel a ->
          Array.iter
            (fun addr ->
              match Hashtbl.find_opt line_writer (line addr) with
              | Some w -> add_edge w i Mem_data
              | None -> ())
            a.Isa.reads;
          Array.iter
            (fun addr ->
              Hashtbl.replace line_writer (line addr) i;
              Hashtbl.replace line_accel_writer (line addr) i)
            a.Isa.writes
      | _ -> ());
      let dst = ins.Isa.dst in
      if dst <> Isa.no_reg then begin
        let w = last_writer.(dst) in
        if w >= 0 then add_edge w i Output;
        List.iter (fun r -> if r <> i then add_edge r i Anti) readers_since.(dst);
        last_writer.(dst) <- i;
        readers_since.(dst) <- []
      end;
      if depth_at.(i) > !max_depth then max_depth := depth_at.(i))
    instrs;
  {
    n;
    preds;
    stats =
      {
        nodes = n;
        true_reg = !true_reg;
        true_mem = !true_mem;
        mem_data = !mem_data;
        anti = !anti;
        output = !output;
        depth = !max_depth;
      };
  }

let stats_to_json s =
  let open Tca_util.Json in
  Obj
    [
      ("nodes", Int s.nodes);
      ("true_reg_edges", Int s.true_reg);
      ("true_mem_edges", Int s.true_mem);
      ("mem_data_edges", Int s.mem_data);
      ("anti_edges", Int s.anti);
      ("output_edges", Int s.output);
      ("depth", Int s.depth);
    ]
