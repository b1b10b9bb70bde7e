open Tca_uarch

type t = {
  name : string;
  baseline_instrs : int;
  accelerated_instrs : int;
  invocations : int;
  acceleratable_instrs : int;
  v : float;
  a : float;
  avg_reads_per_invocation : float;
  avg_writes_per_invocation : float;
  avg_fresh_lines_per_invocation : float;
  compute_latency : int;
}

type pair = {
  baseline : Trace.t;
  accelerated : Trace.t;
  meta : t;
}

let make ~name ~baseline ~accelerated ?(fresh_lines = fun ~reads:_ -> 0.0)
    ~compute_latency () =
  let baseline_instrs = Trace.length baseline in
  if baseline_instrs = 0 then invalid_arg "Meta.make: empty baseline";
  let accelerated_instrs = Trace.length accelerated in
  let invocations, reads, writes =
    Array.fold_left
      (fun ((n, r, w) as acc) (ins : Isa.instr) ->
        match ins.Isa.op with
        | Isa.Accel x ->
            (n + 1, r + Array.length x.Isa.reads, w + Array.length x.Isa.writes)
        | _ -> acc)
      (0, 0, 0) accelerated.Trace.instrs
  in
  let acceleratable_instrs =
    baseline_instrs - (accelerated_instrs - invocations)
  in
  if acceleratable_instrs < 0 || acceleratable_instrs > baseline_instrs then
    invalid_arg "Meta.make: acceleratable fraction out of range";
  let per_invocation n =
    if invocations = 0 then 0.0
    else float_of_int n /. float_of_int invocations
  in
  let avg_reads = per_invocation reads in
  let nb = float_of_int baseline_instrs in
  {
    baseline;
    accelerated;
    meta =
      {
        name;
        baseline_instrs;
        accelerated_instrs;
        invocations;
        acceleratable_instrs;
        v = float_of_int invocations /. nb;
        a = float_of_int acceleratable_instrs /. nb;
        avg_reads_per_invocation = avg_reads;
        avg_writes_per_invocation = per_invocation writes;
        avg_fresh_lines_per_invocation = fresh_lines ~reads:avg_reads;
        compute_latency;
      };
  }

let pp fmt t =
  Format.fprintf fmt
    "%s: baseline=%d accel=%d invocations=%d v=%.6f a=%.4f reads=%.1f \
     writes=%.1f compute=%d"
    t.name t.baseline_instrs t.accelerated_instrs t.invocations t.v t.a
    t.avg_reads_per_invocation t.avg_writes_per_invocation t.compute_latency
