(* An independent oracle for the out-of-order core: the golden tests,
   the fuzz harness and the bench harness run this implementation
   against the optimized [Pipeline] and assert bit-identical [Sim_stats].
   It keeps the straightforward representation the optimized path
   replaces -- a list of pending accelerator writes, [Isa.instr] records
   decoded on every access, closures in the issue stage, a backwards ROB
   scan for store-to-load forwarding -- so it checks the core's
   semantics from a second implementation, and the measured ratio
   between the two is a machine-independent record of the optimization,
   used by the CI bench regression guard. Keep it that way: do not
   optimize this file.

   What it does not re-implement: the per-unit accelerator policy is
   [Tca_unit.State] (shared, pinned by the exact-cycle tests), and
   validation and stats assembly are [Pipeline.validate] and
   [Sim_stats.make]. It carries no telemetry or probe hooks; telemetry
   on/off parity is asserted on [Pipeline] by the fuzz harness. *)

(* ROB entry states. *)
let st_empty = 0
let st_waiting = 1
let st_executing = 2
let st_done = 3

type state = {
  cfg : Config.t;
  trace : Trace.t;
  hier : Mem_hier.t;
  bp : Bpred.t;
  ports : Ports.t;
  units : Tca_unit.State.t;  (* the per-unit accelerator policy *)
  cfg_ready : int array;
      (* per-ROB-slot: cycle the invocation's configuration is ready *)
  rob : int;  (* capacity, cached *)
  (* Parallel ROB arrays, indexed by slot. *)
  tr_idx : int array;
  st : int array;
  complete_at : int array;
  seq : int array;
  dep1_slot : int array;
  dep1_seq : int array;
  dep2_slot : int array;
  dep2_seq : int array;
  (* Rename table: architectural register -> youngest producer. *)
  ren_slot : int array;
  ren_seq : int array;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable iq_count : int;
  mutable lsq_count : int;
  mutable next_fetch : int;
  mutable next_seq : int;
  mutable fetch_resume_at : int;
  mutable pending_redirect : int;  (* slot of unresolved mispredicted branch, -1 none *)
  mutable pending_redirect_seq : int;
  mutable serialize_slot : int;  (* in-flight NT TCA blocking dispatch, -1 none *)
  mutable pending_accel_writes : (int * int array) list;
  (* Statistics. *)
  mutable cycle : int;
  mutable committed : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable stall_rob : int;
  mutable stall_iq : int;
  mutable stall_lsq : int;
  mutable stall_serialize : int;
  mutable stall_redirect : int;
  mutable stall_drained : int;
  mutable stall_config : int;
  mutable stall_config_queue : int;
  mutable occupancy_sum : int;
  mutable occupancy_at_accel_sum : int;
}

let create cfg trace =
  let r = cfg.Config.rob_size in
  {
    cfg;
    trace;
    hier = Mem_hier.create cfg.Config.mem;
    bp = Bpred.create cfg.Config.bpred;
    ports = Ports.create ~width:cfg.Config.mem_ports ~horizon:8192;
    units =
      Tca_unit.State.create
        ~exclusive:(cfg.Config.tca_occupancy = Config.Exclusive)
        cfg.Config.tca_units;
    cfg_ready = Array.make r 0;
    rob = r;
    tr_idx = Array.make r (-1);
    st = Array.make r st_empty;
    complete_at = Array.make r 0;
    seq = Array.make r (-1);
    dep1_slot = Array.make r (-1);
    dep1_seq = Array.make r (-1);
    dep2_slot = Array.make r (-1);
    dep2_seq = Array.make r (-1);
    ren_slot = Array.make Isa.num_arch_regs (-1);
    ren_seq = Array.make Isa.num_arch_regs (-1);
    head = 0;
    tail = 0;
    count = 0;
    iq_count = 0;
    lsq_count = 0;
    next_fetch = 0;
    next_seq = 0;
    fetch_resume_at = 0;
    pending_redirect = -1;
    pending_redirect_seq = -1;
    serialize_slot = -1;
    pending_accel_writes = [];
    cycle = 0;
    committed = 0;
    branches = 0;
    mispredicts = 0;
    stall_rob = 0;
    stall_iq = 0;
    stall_lsq = 0;
    stall_serialize = 0;
    stall_redirect = 0;
    stall_drained = 0;
    stall_config = 0;
    stall_config_queue = 0;
    occupancy_sum = 0;
    occupancy_at_accel_sum = 0;
  }

let instr_of s slot = Trace.get s.trace s.tr_idx.(slot)

(* A producer is still pending iff its slot holds the same dynamic
   instruction (sequence number matches) and it has not completed. A
   mismatching sequence means the producer committed and its slot was
   reused (or freed): the value is architecturally available. *)
let producer_pending s slot seq =
  slot >= 0 && s.st.(slot) <> st_empty && s.seq.(slot) = seq
  && s.st.(slot) <> st_done

let deps_ready s slot =
  (not (producer_pending s s.dep1_slot.(slot) s.dep1_seq.(slot)))
  && not (producer_pending s s.dep2_slot.(slot) s.dep2_seq.(slot))

(* Scan program-order-older entries for the youngest in-flight store to
   the same address. Returns:
   [`None] no conflict, access memory;
   [`Forward] matching store completed, forward in 1 cycle;
   [`Blocked] matching store not yet executed, the load must wait. *)
let older_store_match s slot addr =
  let pos = (slot - s.head + s.rob) mod s.rob in
  let rec scan k =
    if k < 0 then `None
    else
      let j = (s.head + k) mod s.rob in
      if s.st.(j) = st_empty then scan (k - 1)
      else
        let ins = instr_of s j in
        match ins.Isa.op with
        | Isa.Store when ins.Isa.addr = addr ->
            if s.st.(j) = st_done then `Forward else `Blocked
        | _ -> scan (k - 1)
  in
  scan (pos - 1)

let op_latency (cfg : Config.t) (op : Isa.op) =
  match op with
  | Isa.Int_alu | Isa.Branch -> cfg.latencies.Config.int_alu
  | Isa.Int_mult -> cfg.latencies.Config.int_mult
  | Isa.Fp_alu -> cfg.latencies.Config.fp_alu
  | Isa.Fp_mult -> cfg.latencies.Config.fp_mult
  | Isa.Load | Isa.Store | Isa.Accel _ -> assert false

(* Partial speculation: a deterministic per-dynamic-instance coin decides
   whether this TCA invocation may execute speculatively (as a
   confidence-based design would, paper Section VIII). *)
let accel_speculative s slot =
  match s.cfg.Config.tca_speculate_fraction with
  | None -> s.cfg.Config.coupling.Config.allow_leading
  | Some p ->
      let h = s.seq.(slot) * 0x9E3779B9 in
      let h = (h lxor (h lsr 16)) land 0xFFFF in
      float_of_int h < p *. 65536.0

(* --- per-cycle stages, called in order: complete, commit, issue,
   dispatch --- *)

let complete_stage s =
  Ports.advance s.ports ~now:s.cycle;
  (* Retire pending accelerator writes into the cache hierarchy. *)
  let due, still =
    List.partition (fun (at, _) -> at <= s.cycle) s.pending_accel_writes
  in
  List.iter (fun (_, addrs) -> Array.iter (Mem_hier.store s.hier) addrs) due;
  s.pending_accel_writes <- still;
  if s.count > 0 then begin
    let k = ref 0 in
    while !k < s.count do
      let slot = (s.head + !k) mod s.rob in
      if s.st.(slot) = st_executing && s.complete_at.(slot) <= s.cycle then begin
        s.st.(slot) <- st_done;
        if s.pending_redirect = slot && s.pending_redirect_seq = s.seq.(slot)
        then begin
          s.fetch_resume_at <- s.cycle + s.cfg.Config.frontend_depth;
          s.pending_redirect <- -1;
          s.pending_redirect_seq <- -1
        end
      end;
      incr k
    done
  end

let commit_stage s =
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < s.cfg.Config.commit_width && s.count > 0 do
    let slot = s.head in
    if
      s.st.(slot) = st_done
      && s.complete_at.(slot) + s.cfg.Config.commit_depth <= s.cycle
    then begin
      let ins = instr_of s slot in
      (match ins.Isa.op with
      | Isa.Store -> Mem_hier.store s.hier ins.Isa.addr
      | _ -> ());
      (match ins.Isa.op with
      | Isa.Load | Isa.Store -> s.lsq_count <- s.lsq_count - 1
      | _ -> ());
      let dst = ins.Isa.dst in
      if dst >= 0 && s.ren_slot.(dst) = slot && s.ren_seq.(dst) = s.seq.(slot)
      then begin
        s.ren_slot.(dst) <- -1;
        s.ren_seq.(dst) <- -1
      end;
      if s.serialize_slot = slot then s.serialize_slot <- -1;
      s.st.(slot) <- st_empty;
      s.seq.(slot) <- -1;
      s.head <- (s.head + 1) mod s.rob;
      s.count <- s.count - 1;
      s.committed <- s.committed + 1;
      incr n
    end
    else continue := false
  done

(* Issue one line read at or after [now]: books a memory port. Returns
   the completion cycle. *)
let memory_read s ~now addr =
  let start = Ports.reserve s.ports ~now in
  start + Mem_hier.load_latency s.hier addr

let issue_accel s slot (a : Isa.accel) =
  let u = a.Isa.unit_id in
  let start =
    Tca_unit.State.start s.units u ~cycle:s.cycle ~ready:s.cfg_ready.(slot)
  in
  let reads_done =
    Array.fold_left
      (fun acc addr -> max acc (memory_read s ~now:start addr))
      start a.Isa.reads
  in
  let compute_done = reads_done + a.Isa.compute_latency in
  let write_done =
    Array.fold_left
      (fun acc _addr ->
        let port_cycle = Ports.reserve s.ports ~now:compute_done in
        max acc (port_cycle + 1))
      compute_done a.Isa.writes
  in
  let finish = max compute_done write_done in
  if Array.length a.Isa.writes > 0 then
    s.pending_accel_writes <- (finish, a.Isa.writes) :: s.pending_accel_writes;
  s.complete_at.(slot) <- max finish (s.cycle + 1);
  Tca_unit.State.finish s.units u ~issued:s.cycle
    ~complete:s.complete_at.(slot)

let issue_stage s =
  let issued = ref 0 in
  let int_alu_used = ref 0
  and int_mult_used = ref 0
  and fp_used = ref 0 in
  let k = ref 0 in
  while !issued < s.cfg.Config.issue_width && !k < s.count do
    let slot = (s.head + !k) mod s.rob in
    if s.st.(slot) = st_waiting && deps_ready s slot then begin
      let ins = instr_of s slot in
      let try_issue complete =
        s.st.(slot) <- st_executing;
        s.complete_at.(slot) <- complete;
        s.iq_count <- s.iq_count - 1;
        incr issued
      in
      match ins.Isa.op with
      | Isa.Int_alu | Isa.Branch ->
          if !int_alu_used < s.cfg.Config.int_alu_units then begin
            incr int_alu_used;
            try_issue (s.cycle + op_latency s.cfg ins.Isa.op)
          end
      | Isa.Int_mult ->
          if !int_mult_used < s.cfg.Config.int_mult_units then begin
            incr int_mult_used;
            try_issue (s.cycle + op_latency s.cfg ins.Isa.op)
          end
      | Isa.Fp_alu | Isa.Fp_mult ->
          if !fp_used < s.cfg.Config.fp_units then begin
            incr fp_used;
            try_issue (s.cycle + op_latency s.cfg ins.Isa.op)
          end
      | Isa.Store ->
          (* Address generation; data drains to cache at commit. *)
          try_issue (s.cycle + 1)
      | Isa.Load -> (
          match older_store_match s slot ins.Isa.addr with
          | `Blocked -> ()
          | `Forward -> try_issue (s.cycle + 1)
          | `None -> try_issue (memory_read s ~now:s.cycle ins.Isa.addr))
      | Isa.Accel a ->
          let at_head = slot = s.head in
          if accel_speculative s slot || at_head then begin
            issue_accel s slot a;
            s.st.(slot) <- st_executing;
            s.iq_count <- s.iq_count - 1;
            incr issued
          end
          else Tca_unit.State.wait_for_head s.units a.Isa.unit_id
    end;
    incr k
  done

(* Reasons the first dispatch slot of a cycle could not be filled, for the
   stall breakdown. [Config_write] and [Config_queue] are counted outside
   the six-reason breakdown (Sim_stats.config_*_stall_cycles). *)
type stall =
  | No_stall
  | Drained
  | Redirect
  | Serialize
  | Rob
  | Iq
  | Lsq
  | Config_write
  | Config_queue

let dispatch_stage s =
  let dispatched = ref 0 in
  let stall = ref No_stall in
  let continue = ref true in
  while !continue && !dispatched < s.cfg.Config.dispatch_width do
    if s.next_fetch >= Trace.length s.trace then begin
      stall := Drained;
      continue := false
    end
    else if s.cycle < s.fetch_resume_at then begin
      stall := Redirect;
      continue := false
    end
    else if s.serialize_slot >= 0 then begin
      stall := Serialize;
      continue := false
    end
    else if s.count = s.rob then begin
      stall := Rob;
      continue := false
    end
    else if s.iq_count = s.cfg.Config.iq_size then begin
      stall := Iq;
      continue := false
    end
    else begin
      let ins = Trace.get s.trace s.next_fetch in
      if Isa.is_mem ins && s.lsq_count = s.cfg.Config.lsq_size then begin
        stall := Lsq;
        continue := false
      end
      else begin
        let cfg_block =
          match ins.Isa.op with
          | Isa.Accel a -> (
              match
                Tca_unit.State.gate s.units a.Isa.unit_id ~instr:s.next_fetch
                  ~cycle:s.cycle
              with
              | Tca_unit.State.Go -> No_stall
              | Tca_unit.State.Config_write -> Config_write
              | Tca_unit.State.Config_queue -> Config_queue)
          | _ -> No_stall
        in
        if cfg_block <> No_stall then begin
          stall := cfg_block;
          continue := false
        end
        else begin
        let slot = s.tail in
        s.tail <- (s.tail + 1) mod s.rob;
        s.count <- s.count + 1;
        s.tr_idx.(slot) <- s.next_fetch;
        s.st.(slot) <- st_waiting;
        s.seq.(slot) <- s.next_seq;
        s.next_seq <- s.next_seq + 1;
        let dep r = if r >= 0 then (s.ren_slot.(r), s.ren_seq.(r)) else (-1, -1) in
        let d1s, d1q = dep ins.Isa.src1 in
        let d2s, d2q = dep ins.Isa.src2 in
        s.dep1_slot.(slot) <- d1s;
        s.dep1_seq.(slot) <- d1q;
        s.dep2_slot.(slot) <- d2s;
        s.dep2_seq.(slot) <- d2q;
        if ins.Isa.dst >= 0 then begin
          s.ren_slot.(ins.Isa.dst) <- slot;
          s.ren_seq.(ins.Isa.dst) <- s.seq.(slot)
        end;
        s.iq_count <- s.iq_count + 1;
        if Isa.is_mem ins then s.lsq_count <- s.lsq_count + 1;
        (match ins.Isa.op with
        | Isa.Branch ->
            s.branches <- s.branches + 1;
            if not (Bpred.is_perfect s.bp) then begin
              let predicted = Bpred.predict s.bp ~pc:ins.Isa.pc in
              Bpred.update s.bp ~pc:ins.Isa.pc ~taken:ins.Isa.taken;
              if predicted <> ins.Isa.taken then begin
                s.mispredicts <- s.mispredicts + 1;
                s.pending_redirect <- slot;
                s.pending_redirect_seq <- s.seq.(slot);
                s.fetch_resume_at <- max_int
              end
            end
        | Isa.Accel a ->
            s.occupancy_at_accel_sum <- s.occupancy_at_accel_sum + s.count - 1;
            if not s.cfg.Config.coupling.Config.allow_trailing then
              s.serialize_slot <- slot;
            s.cfg_ready.(slot) <-
              Tca_unit.State.dispatch s.units a.Isa.unit_id ~cycle:s.cycle
        | _ -> ());
        s.next_fetch <- s.next_fetch + 1;
        incr dispatched
        end
      end
    end
  done;
  (* Attribute the cycle to a stall reason only when nothing at all was
     dispatched: that is the "zero useful dispatches" notion the model
     reasons about. *)
  if !dispatched = 0 then begin
    match !stall with
    | Drained -> s.stall_drained <- s.stall_drained + 1
    | Redirect -> s.stall_redirect <- s.stall_redirect + 1
    | Serialize ->
        s.stall_serialize <- s.stall_serialize + 1;
        Tca_unit.State.serialize_stall s.units
    | Rob -> s.stall_rob <- s.stall_rob + 1
    | Iq -> s.stall_iq <- s.stall_iq + 1
    | Lsq -> s.stall_lsq <- s.stall_lsq + 1
    | Config_write -> s.stall_config <- s.stall_config + 1
    | Config_queue -> s.stall_config_queue <- s.stall_config_queue + 1
    | No_stall -> ()
  end

let stats_of s =
  Sim_stats.make ~cycles:s.cycle ~committed:s.committed ~branches:s.branches
    ~mispredicts:s.mispredicts ~hier:s.hier
    ~occupancy_sum:s.occupancy_sum
    ~occupancy_at_accel_sum:s.occupancy_at_accel_sum
    ~stalls:
      {
        Sim_stats.rob_full = s.stall_rob;
        iq_full = s.stall_iq;
        lsq_full = s.stall_lsq;
        serialize = s.stall_serialize;
        redirect = s.stall_redirect;
        drained = s.stall_drained;
      }
    ~config_stall_cycles:s.stall_config
    ~config_queue_stall_cycles:s.stall_config_queue
    (Tca_unit.State.unit_stats s.units)

let run cfg trace =
  match Pipeline.validate cfg trace with
  | Result.Error d -> Result.Error d
  | Ok () ->
      let s = create cfg trace in
      let cap =
        match cfg.Config.max_cycles with
        | Some c -> c
        | None -> Pipeline.default_cycle_budget trace
      in
      let watchdog = ref None in
      while
        !watchdog = None && (s.next_fetch < Trace.length trace || s.count > 0)
      do
        if s.cycle > cap then
          (* The watchdog snapshot and the stats snapshot are taken at the
             same instant, so [diag.committed = stats.committed] holds by
             construction. *)
          watchdog :=
            Some
              (Tca_util.Diag.Watchdog
                 {
                   cycles = s.cycle;
                   committed = s.committed;
                   total = Trace.length trace;
                 })
        else begin
          complete_stage s;
          commit_stage s;
          issue_stage s;
          dispatch_stage s;
          s.occupancy_sum <- s.occupancy_sum + s.count;
          s.cycle <- s.cycle + 1
        end
      done;
      Ok
        (match !watchdog with
        | Some diag -> Pipeline.Partial { stats = stats_of s; diag }
        | None -> Pipeline.Complete (stats_of s))

let run_exn cfg trace =
  match run cfg trace with
  | Ok (Pipeline.Complete stats) -> stats
  | Ok (Pipeline.Partial { diag; _ }) | Result.Error diag ->
      raise (Tca_util.Diag.Error diag)
