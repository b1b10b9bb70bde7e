open Tca_uarch

type t = {
  invocations : int;
  baseline_instrs : int;
  accelerated_instrs : int;
  acceleratable_instrs : int;
  a : float;
  v : float;
  avg_reads : float;
  avg_writes : float;
  avg_fresh_lines : float;
  avg_compute_latency : float;
  accel_latency : float;
  mean_leading : float;
  mean_trailing : float;
}

let invalid message =
  Error (Tca_util.Diag.Invalid { field = "Derive.of_pair"; message })

let of_pair ~(cfg : Config.t) ~baseline ~accelerated =
  let len_base = Trace.length baseline in
  let len_acc = Trace.length accelerated in
  if len_base = 0 then invalid "empty baseline trace"
  else begin
    (* One static pass over the accelerated trace: invocation count and
       footprint sums, inter-invocation gaps, and an in-order replay of
       the memory stream through the configured L1 to count the lines
       each invocation must fetch fresh. *)
    let l1 = Cache.create cfg.Config.mem.Mem_hier.l1 in
    let inv = ref 0
    and reads = ref 0
    and writes = ref 0
    and fresh = ref 0
    and compute = ref 0 in
    let last_accel = ref (-1) in
    let leading_sum = ref 0 and trailing_sum = ref 0 and trailing_n = ref 0 in
    Array.iteri
      (fun i (ins : Isa.instr) ->
        match ins.Isa.op with
        | Isa.Load | Isa.Store -> ignore (Cache.access l1 ins.Isa.addr)
        | Isa.Accel a ->
            incr inv;
            reads := !reads + Array.length a.Isa.reads;
            writes := !writes + Array.length a.Isa.writes;
            compute := !compute + a.Isa.compute_latency;
            Array.iter
              (fun addr -> if not (Cache.access l1 addr) then incr fresh)
              a.Isa.reads;
            Array.iter (fun addr -> ignore (Cache.access l1 addr)) a.Isa.writes;
            leading_sum := !leading_sum + (i - !last_accel - 1);
            if !last_accel >= 0 then begin
              trailing_sum := !trailing_sum + (i - !last_accel - 1);
              incr trailing_n
            end;
            last_accel := i
        | _ -> ())
      accelerated.Trace.instrs;
    if !inv = 0 then invalid "accelerated trace has no Accel instruction"
    else begin
      (* Instructions after the last invocation close its trailing
         window. *)
      trailing_sum := !trailing_sum + (len_acc - !last_accel - 1);
      incr trailing_n;
      let acceleratable = len_base - (len_acc - !inv) in
      if acceleratable < 0 || acceleratable > len_base then
        invalid
          (Printf.sprintf
             "implied acceleratable count %d outside [0, %d]: not a \
              baseline/accelerated pair"
             acceleratable len_base)
      else begin
        let fi = float_of_int in
        let ni = fi !inv in
        let avg_reads = fi !reads /. ni
        and avg_writes = fi !writes /. ni
        and avg_fresh_lines = fi !fresh /. ni
        and avg_compute_latency = fi !compute /. ni in
        let accel_latency =
          Config.accel_latency_estimate cfg ~reads:avg_reads
            ~writes:avg_writes ~fresh_lines:avg_fresh_lines
            ~compute:avg_compute_latency
        in
        Ok
          {
            invocations = !inv;
            baseline_instrs = len_base;
            accelerated_instrs = len_acc;
            acceleratable_instrs = acceleratable;
            a = fi acceleratable /. fi len_base;
            v = ni /. fi len_base;
            avg_reads;
            avg_writes;
            avg_fresh_lines;
            avg_compute_latency;
            accel_latency;
            mean_leading = fi !leading_sum /. ni;
            mean_trailing = fi !trailing_sum /. fi !trailing_n;
          }
      end
    end
  end

let scenario ?drain t =
  Tca_model.Params.scenario ?drain ~a:t.a ~v:t.v
    ~accel:(Tca_model.Params.Latency t.accel_latency) ()

let accel_factor t ~ipc =
  let open Tca_util.Diag.Syntax in
  let* ipc = Tca_util.Diag.positive ~field:"Derive.accel_factor ipc" ipc in
  if t.accel_latency <= 0.0 then
    Error
      (Tca_util.Diag.Invalid
         {
           field = "Derive.accel_factor";
           message = "zero accelerator latency has no finite factor";
         })
  else
    let g = float_of_int t.acceleratable_instrs /. float_of_int t.invocations in
    Tca_util.Diag.finite ~field:"Derive.accel_factor"
      (g /. (t.accel_latency *. ipc))

let to_json t =
  let open Tca_util.Json in
  Obj
    [
      ("invocations", Int t.invocations);
      ("baseline_instrs", Int t.baseline_instrs);
      ("accelerated_instrs", Int t.accelerated_instrs);
      ("acceleratable_instrs", Int t.acceleratable_instrs);
      ("a", Float t.a);
      ("v", Float t.v);
      ("avg_reads", Float t.avg_reads);
      ("avg_writes", Float t.avg_writes);
      ("avg_fresh_lines", Float t.avg_fresh_lines);
      ("avg_compute_latency", Float t.avg_compute_latency);
      ("accel_latency", Float t.accel_latency);
      ("mean_leading", Float t.mean_leading);
      ("mean_trailing", Float t.mean_trailing);
    ]

let pp fmt t =
  Format.fprintf fmt
    "derived: a=%.4f v=%.6f invocations=%d reads=%.1f writes=%.1f fresh=%.2f \
     latency=%.1f windows=%.0f/%.0f"
    t.a t.v t.invocations t.avg_reads t.avg_writes t.avg_fresh_lines
    t.accel_latency t.mean_leading t.mean_trailing
