(* Optimized hot path. Its out-of-order core is pinned, bit for bit, to
   [Pipeline_reference], an independent implementation of the same core:
   the golden tests, the fuzz harness and [bench simulator] all diff the
   two. The per-unit accelerator policy (configuration gate, descriptor
   engine, [Exclusive] free-at cycle, per-unit counters) is not
   duplicated: both pipelines call [Tca_unit.State], and the exact-cycle
   tests in test_uarch.ml pin it. The optimizations change the
   representation and skip work that provably changes nothing:

   - dispatch unpacks each uop with one [Trace.Decoded.read] from the
     trace's packed columns (built with the trace) and keeps its op,
     address and destination in per-slot arrays, so the per-cycle loops
     index int arrays instead of chasing [Isa.instr] records and
     matching variant constructors;
   - pending accelerator writes live in a parallel-array stack instead
     of a per-cycle [List.partition] (drained newest-first, exactly the
     reference's list order, since store order shapes cache LRU state);
   - store-to-load forwarding scans an explicit in-flight store queue
     (the stores between dispatch and commit, in program order) instead
     of walking every older ROB slot;
   - issue follows wakeups instead of walking the window: at dispatch a
     slot counts its pending producers ([producer_pending]) and hangs one
     edge on each one's wakeup list; a finishing producer walks its list
     and sets the ready bit of every consumer whose count reaches zero.
     Issue scans the [ready] bitmap in program order from the head, so
     it visits exactly the slots the reference's oldest-first scan finds
     waiting with ready operands, in the same order and with the same
     early stop at [issue_width]. Loads blocked on an older store and
     accelerators waiting for the head keep their bit, as they keep
     waiting in the reference; issuing clears it. Completion walks [ex],
     the executing slots in no particular order (completion swaps the
     last entry into the freed place), which is enough because
     completions are order-independent;
   - ring-buffer indices wrap with a compare instead of [mod], stage
     loops are tail-recursive over int accumulators instead of
     closure/ref based, and per-opcode latencies come from a table built
     at [create];
   - the run loop is split: the [?telemetry:None] + [?probe:None] path
     does no interval bookkeeping at all; only the instrumented path
     calls the probe and flushes telemetry intervals;
   - the uninstrumented loop jumps quiet stretches: after a cycle in
     which nothing completed, committed, issued or dispatched, every
     cycle repeats it until the next event (a completion, the head's
     commit, a due accelerator write, the end of a redirect, a unit's
     configuration gate opening), so [run_fast] moves straight there,
     never past [cap + 1], where the watchdog fires as it would when
     stepping, and adds the skipped cycles' counters in bulk. The
     instrumented loop steps every cycle: its probe and its interval
     flush see each one.

   In steady state the cycle loop allocates nothing: everything it
   touches is a preallocated int array or a mutable int field. *)

module D = Trace.Decoded

type probe = {
  on_cycle :
    cycle:int -> dispatched:int -> issued:int -> executing:int ->
    rob_occupancy:int -> unit;
}

(* ROB entry states. *)
let st_empty = 0
let st_waiting = 1
let st_executing = 2
let st_done = 3

(* Stall reasons for the first unfilled dispatch slot of a cycle
   (scratch encoding; see [dispatch_stage]). *)
let stall_none = 0
let stall_drained = 1
let stall_redirect = 2
let stall_serialize = 3
let stall_rob = 4
let stall_iq = 5
let stall_lsq = 6
let stall_config = 7
let stall_config_queue = 8

type state = {
  cfg : Config.t;
  telemetry : Tca_telemetry.Sink.t option;
      (* Observation only: instrumentation reads simulator state, never
         writes it, so an attached sink cannot perturb results (asserted
         by the fuzz harness). *)
  trace : Trace.t;
  d : D.t;  (* the packed columns of [trace] *)
  u : D.uop;  (* the uop being dispatched, read from [d] *)
  tlen : int;
  hier : Mem_hier.t;
  bp : Bpred.t;
  bp_perfect : bool;
  ports : Ports.t;
  n_units : int;  (* telemetry tags events with their unit when > 1 *)
  units : Tca_unit.State.t;  (* the per-unit accelerator policy *)
  cfg_ready : int array;
      (* per-ROB-slot: cycle the invocation's configuration is ready
         ([Tca_unit.State.dispatch]) *)
  rob : int;  (* capacity, cached *)
  (* Config scalars cached flat (one load instead of two). *)
  allow_leading : bool;
  allow_trailing : bool;
  issue_width : int;
  dispatch_width : int;
  commit_width : int;
  commit_depth : int;
  frontend_depth : int;
  iq_size : int;
  lsq_size : int;
  int_alu_units : int;
  int_mult_units : int;
  fp_units : int;
  lat : int array;  (* latency per opcode, indexed by [D.op_*] *)
  (* Parallel ROB arrays, indexed by slot. *)
  tr_idx : int array;
  (* The slot's uop as dispatch read it from [d]: op code, address (a
     load's or store's), destination register. *)
  op_of : int array;
  addr_of : int array;
  dst_of : int array;
  st : int array;
  complete_at : int array;
  seq : int array;
  producer_pending : int array;  (* operands still waiting on a producer *)
  (* Wakeup lists, one per producer slot, linked through [wake_next]:
     edge [2 * slot + k] is operand [k] of consumer [slot], so every edge
     has a preallocated node. A list is emptied when its producer
     finishes, before either end can commit. *)
  wake_head : int array;  (* first edge of each slot's list, -1 none *)
  wake_next : int array;  (* next edge, indexed by edge *)
  ready : int array;
      (* bitmap over slots, 32 a word: waiting with every operand ready *)
  (* Rename table: architectural register -> youngest producer. *)
  ren_slot : int array;
  ren_seq : int array;
  (* In-flight stores (dispatched, not committed), program order:
     ring of ROB slot indices, scanned for store-to-load forwarding. *)
  stq : int array;
  mutable stq_head : int;
  mutable stq_count : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable iq_count : int;  (* [st_waiting] slots *)
  ex : int array;  (* [st_executing] slots, unordered *)
  mutable executing : int;
  mutable next_complete : int;
      (* lower bound on the earliest [complete_at] among executing
         entries ([max_int] when none): the completion walk runs only on
         cycles where something can actually finish *)
  mutable lsq_count : int;
  mutable next_fetch : int;
  mutable next_seq : int;
  mutable fetch_resume_at : int;
  mutable pending_redirect : int;  (* slot of unresolved mispredicted branch, -1 none *)
  mutable pending_redirect_seq : int;
  mutable serialize_slot : int;  (* in-flight NT TCA blocking dispatch, -1 none *)
  (* Pending accelerator writebacks: a stack of (due cycle, span in
     the pool of [d]) triples, drained newest-first. *)
  mutable paw_at : int array;
  mutable paw_off : int array;
  mutable paw_len : int array;
  mutable paw_count : int;
  mutable paw_next_due : int;
  mutable stall_reason : int;  (* dispatch_stage scratch *)
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

let create ?telemetry cfg trace =
  let r = cfg.Config.rob_size in
  let bp = Bpred.create cfg.Config.bpred in
  let lat = Array.make 8 0 in
  lat.(D.op_int_alu) <- cfg.Config.latencies.Config.int_alu;
  lat.(D.op_int_mult) <- cfg.Config.latencies.Config.int_mult;
  lat.(D.op_fp_alu) <- cfg.Config.latencies.Config.fp_alu;
  lat.(D.op_fp_mult) <- cfg.Config.latencies.Config.fp_mult;
  lat.(D.op_branch) <- cfg.Config.latencies.Config.int_alu;
  let units = cfg.Config.tca_units in
  {
    cfg;
    telemetry;
    trace;
    d = Trace.decoded trace;
    u = D.uop ();
    tlen = Trace.length trace;
    hier = Mem_hier.create cfg.Config.mem;
    bp;
    bp_perfect = Bpred.is_perfect bp;
    ports = Ports.create ~width:cfg.Config.mem_ports ~horizon:8192;
    n_units = Array.length units;
    units =
      Tca_unit.State.create
        ~exclusive:(cfg.Config.tca_occupancy = Config.Exclusive)
        units;
    cfg_ready = Array.make r 0;
    rob = r;
    allow_leading = cfg.Config.coupling.Config.allow_leading;
    allow_trailing = cfg.Config.coupling.Config.allow_trailing;
    issue_width = cfg.Config.issue_width;
    dispatch_width = cfg.Config.dispatch_width;
    commit_width = cfg.Config.commit_width;
    commit_depth = cfg.Config.commit_depth;
    frontend_depth = cfg.Config.frontend_depth;
    iq_size = cfg.Config.iq_size;
    lsq_size = cfg.Config.lsq_size;
    int_alu_units = cfg.Config.int_alu_units;
    int_mult_units = cfg.Config.int_mult_units;
    fp_units = cfg.Config.fp_units;
    lat;
    tr_idx = Array.make r (-1);
    op_of = Array.make r 0;
    addr_of = Array.make r 0;
    dst_of = Array.make r Isa.no_reg;
    st = Array.make r st_empty;
    complete_at = Array.make r 0;
    seq = Array.make r (-1);
    producer_pending = Array.make r 0;
    wake_head = Array.make r (-1);
    wake_next = Array.make (2 * r) (-1);
    ready = Array.make ((r + 31) / 32) 0;
    ren_slot = Array.make Isa.num_arch_regs (-1);
    ren_seq = Array.make Isa.num_arch_regs (-1);
    stq = Array.make r (-1);
    stq_head = 0;
    stq_count = 0;
    head = 0;
    tail = 0;
    count = 0;
    iq_count = 0;
    ex = Array.make r (-1);
    executing = 0;
    next_complete = max_int;
    lsq_count = 0;
    next_fetch = 0;
    next_seq = 0;
    fetch_resume_at = 0;
    pending_redirect = -1;
    pending_redirect_seq = -1;
    serialize_slot = -1;
    paw_at = Array.make 8 0;
    paw_off = Array.make 8 0;
    paw_len = Array.make 8 0;
    paw_count = 0;
    paw_next_due = max_int;
    stall_reason = stall_none;
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

(* [head + k] reduced into [0, rob): both operands are < rob, so one
   conditional subtraction replaces the reference's [mod]. *)
let[@inline] wrap s i = if i >= s.rob then i - s.rob else i

let[@inline] imin (a : int) b = if a < b then a else b

(* --- the ready bitmap --- *)

(* Bit index of a one-bit word below 2^32: the top five bits of its
   product with a de Bruijn constant are distinct for each bit. *)
let debruijn = 0x077CB531

let debruijn_bit =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.((((1 lsl i) * debruijn) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let[@inline] set_ready s slot =
  let w = slot lsr 5 in
  s.ready.(w) <- s.ready.(w) lor (1 lsl (slot land 31))

(* The first ready slot in [p, e), or [e] when there is none. *)
let rec next_ready s p e =
  if p >= e then e
  else
    let w = p lsr 5 in
    let bits = s.ready.(w) land (-1 lsl (p land 31)) in
    if bits = 0 then next_ready s ((w + 1) lsl 5) e
    else
      let low = bits land -bits in
      let slot =
        (w lsl 5) + debruijn_bit.(((low * debruijn) land 0xFFFFFFFF) lsr 27)
      in
      if slot < e then slot else e

(* Operand [k] of the slot being dispatched reads [reg]. Its producer is
   still pending iff the renamed slot holds the same dynamic instruction
   (sequence number matches) and has not completed; a mismatch means the
   producer committed and the value is architecturally available. A
   pending producer gets the edge on its wakeup list. Returns 1 when the
   operand waits, else 0. *)
let wait_on s slot k reg =
  if reg < 0 then 0
  else
    let p = s.ren_slot.(reg) in
    if p >= 0 && s.seq.(p) = s.ren_seq.(reg) && s.st.(p) <> st_done then begin
      let e = (2 * slot) + k in
      s.wake_next.(e) <- s.wake_head.(p);
      s.wake_head.(p) <- e;
      1
    end
    else 0

(* A producer finished: each edge on its list is one pending operand of
   the edge's slot, which becomes ready with its last one. *)
let rec wake s e =
  if e >= 0 then begin
    let c = e lsr 1 in
    let n = s.producer_pending.(c) - 1 in
    s.producer_pending.(c) <- n;
    if n = 0 then set_ready s c;
    wake s s.wake_next.(e)
  end

(* Youngest in-flight store older (in program order, i.e. by sequence
   number) than the load, to the same address. Walks the store queue
   newest-first — the same answer as the reference's backwards ROB scan,
   which skips every non-store slot, but in O(in-flight stores).
   Returns:
   [`None] no conflict, access memory;
   [`Forward] matching store completed, forward in 1 cycle;
   [`Blocked] matching store not yet executed, the load must wait. *)
let older_store_match s load_seq addr =
  let rec scan k =
    if k < 0 then `None
    else
      let slot = s.stq.(wrap s (s.stq_head + k)) in
      if s.seq.(slot) >= load_seq then scan (k - 1)
      else if s.addr_of.(slot) = addr then
        if s.st.(slot) = st_done then `Forward else `Blocked
      else scan (k - 1)
  in
  scan (s.stq_count - 1)

(* Partial speculation: a deterministic per-dynamic-instance coin decides
   whether this TCA invocation may execute speculatively (as a
   confidence-based design would, paper Section VIII). *)
let accel_speculative s slot =
  match s.cfg.Config.tca_speculate_fraction with
  | None -> s.allow_leading
  | Some p ->
      let h = s.seq.(slot) * 0x9E3779B9 in
      let h = (h lxor (h lsr 16)) land 0xFFFF in
      float_of_int h < p *. 65536.0

(* --- per-cycle stages, called in order: complete, commit, issue,
   dispatch --- *)

(* Retire due accelerator writes into the cache hierarchy. Two passes:
   the stores drain newest-entry-first (the reference's list order —
   store order shapes LRU/dirty state), then the survivors compact in
   place keeping their relative order. *)
let drain_accel_writes s =
  for i = s.paw_count - 1 downto 0 do
    if s.paw_at.(i) <= s.cycle then begin
      let off = s.paw_off.(i) in
      for k = off to off + s.paw_len.(i) - 1 do
        Mem_hier.store s.hier (D.pool s.d k)
      done
    end
  done;
  let j = ref 0 and min_at = ref max_int in
  for i = 0 to s.paw_count - 1 do
    if s.paw_at.(i) > s.cycle then begin
      s.paw_at.(!j) <- s.paw_at.(i);
      s.paw_off.(!j) <- s.paw_off.(i);
      s.paw_len.(!j) <- s.paw_len.(i);
      if s.paw_at.(i) < !min_at then min_at := s.paw_at.(i);
      incr j
    end
  done;
  s.paw_count <- !j;
  s.paw_next_due <- !min_at

let push_accel_write s ~finish ~off ~len =
  if s.paw_count = Array.length s.paw_at then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    s.paw_at <- grow s.paw_at;
    s.paw_off <- grow s.paw_off;
    s.paw_len <- grow s.paw_len
  end;
  s.paw_at.(s.paw_count) <- finish;
  s.paw_off.(s.paw_count) <- off;
  s.paw_len.(s.paw_count) <- len;
  s.paw_count <- s.paw_count + 1;
  if finish < s.paw_next_due then s.paw_next_due <- finish

(* Walks the executing list. A finished entry's place takes the last
   entry, which is visited next. Transitions are order-independent, so
   neither the list's order nor the [next_complete] gate in
   [complete_stage] (skip the walk while nothing is due) can change
   results. Recomputes the bound from the entries still executing. *)
let rec complete_walk s i min_next =
  if i >= s.executing then min_next
  else
    let slot = s.ex.(i) in
    let at = s.complete_at.(slot) in
    if at <= s.cycle then begin
      s.st.(slot) <- st_done;
      wake s s.wake_head.(slot);
      s.wake_head.(slot) <- -1;
      s.executing <- s.executing - 1;
      s.ex.(i) <- s.ex.(s.executing);
      if s.pending_redirect = slot && s.pending_redirect_seq = s.seq.(slot)
      then begin
        s.fetch_resume_at <- s.cycle + s.frontend_depth;
        s.pending_redirect <- -1;
        s.pending_redirect_seq <- -1
      end;
      complete_walk s i min_next
    end
    else complete_walk s (i + 1) (if at < min_next then at else min_next)

let complete_stage s =
  (* Every port reservation from here on is at or after this cycle. *)
  Ports.advance s.ports ~now:s.cycle;
  if s.paw_count > 0 && s.paw_next_due <= s.cycle then drain_accel_writes s;
  if s.executing > 0 && s.next_complete <= s.cycle then
    s.next_complete <- complete_walk s 0 max_int

let rec commit_loop s n =
  if n < s.commit_width && s.count > 0 then begin
    let slot = s.head in
    if s.st.(slot) = st_done && s.complete_at.(slot) + s.commit_depth <= s.cycle
    then begin
      let opc = s.op_of.(slot) in
      if opc = D.op_store then begin
        Mem_hier.store s.hier s.addr_of.(slot);
        (* the head store is necessarily the oldest in the queue *)
        s.stq_head <- wrap s (s.stq_head + 1);
        s.stq_count <- s.stq_count - 1
      end;
      if opc = D.op_load || opc = D.op_store then
        s.lsq_count <- s.lsq_count - 1;
      let dst = s.dst_of.(slot) in
      if dst >= 0 && s.ren_slot.(dst) = slot && s.ren_seq.(dst) = s.seq.(slot)
      then begin
        s.ren_slot.(dst) <- -1;
        s.ren_seq.(dst) <- -1
      end;
      if s.serialize_slot = slot then s.serialize_slot <- -1;
      s.st.(slot) <- st_empty;
      s.seq.(slot) <- -1;
      s.head <- wrap s (s.head + 1);
      s.count <- s.count - 1;
      s.committed <- s.committed + 1;
      commit_loop s (n + 1)
    end
  end

let commit_stage s = commit_loop s 0

(* Issue one line read at or after [now]: books a memory port. Returns
   the completion cycle. *)
let memory_read s ~now addr =
  let start = Ports.reserve s.ports ~now in
  start + Mem_hier.load_latency s.hier addr

let rec accel_reads_loop s ~now off k len acc =
  if k >= len then acc
  else
    accel_reads_loop s ~now off (k + 1) len
      (max acc (memory_read s ~now (D.pool s.d (off + k))))

let rec accel_writes_loop ports ~now k len acc =
  if k >= len then acc
  else
    let port_cycle = Ports.reserve ports ~now in
    accel_writes_loop ports ~now (k + 1) len (max acc (port_cycle + 1))

(* Issues [slot]: it leaves the waiting set and starts executing. *)
let[@inline] start_executing s slot complete =
  let w = slot lsr 5 in
  s.ready.(w) <- s.ready.(w) land lnot (1 lsl (slot land 31));
  s.iq_count <- s.iq_count - 1;
  s.st.(slot) <- st_executing;
  s.complete_at.(slot) <- complete;
  s.ex.(s.executing) <- slot;
  s.executing <- s.executing + 1;
  if complete < s.next_complete then s.next_complete <- complete

let issue_accel s slot ti u =
  let start =
    Tca_unit.State.start s.units u ~cycle:s.cycle ~ready:s.cfg_ready.(slot)
  in
  let reads_len = D.reads_len s.d ti in
  let writes_len = D.writes_len s.d ti in
  let compute_latency = D.accel_lat s.d ti in
  let reads_done =
    accel_reads_loop s ~now:start (D.reads_off s.d ti) 0 reads_len start
  in
  let compute_done = reads_done + compute_latency in
  let write_done =
    accel_writes_loop s.ports ~now:compute_done 0 writes_len compute_done
  in
  let finish = max compute_done write_done in
  if writes_len > 0 then
    push_accel_write s ~finish ~off:(D.writes_off s.d ti) ~len:writes_len;
  let complete = max finish (s.cycle + 1) in
  start_executing s slot complete;
  Tca_unit.State.finish s.units u ~issued:s.cycle ~complete;
  match s.telemetry with
  | None -> ()
  | Some sink ->
      (* Invoke-to-complete span; its duration is exactly this
         invocation's contribution to [Sim_stats.accel_busy_cycles]. *)
      Tca_telemetry.Sink.span sink ~cat:"accel"
        ~args:
          ([
             ("reads", Tca_util.Json.Int reads_len);
             ("writes", Tca_util.Json.Int writes_len);
             ("compute_latency", Tca_util.Json.Int compute_latency);
           ]
          @ if s.n_units > 1 then [ ("unit", Tca_util.Json.Int u) ] else [])
        ~ts:(float_of_int s.cycle)
        ~dur:(float_of_int (complete - s.cycle))
        "accel.invoke"

(* Visits the ready slots in program order for up to [issue_width]
   instructions, bounded by the per-class unit counts: from [p] up to
   [e], which is [tail], or the ROB's end when the window wraps and the
   walk continues from slot 0 up to [tail]. A slot that cannot issue
   keeps its bit. Tail-recursive over int accumulators: no closure, no
   ref, no allocation. *)
let rec issue_walk s p e issued ialu imult fp =
  if issued >= s.issue_width then issued
  else
    let slot = next_ready s p e in
    if slot >= e then
      if e = s.rob then issue_walk s 0 s.tail issued ialu imult fp else issued
    else
      let next = slot + 1 in
      let opc = s.op_of.(slot) in
      if opc = D.op_int_alu || opc = D.op_branch then
        if ialu < s.int_alu_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_walk s next e (issued + 1) (ialu + 1) imult fp
        end
        else issue_walk s next e issued ialu imult fp
      else if opc = D.op_int_mult then
        if imult < s.int_mult_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_walk s next e (issued + 1) ialu (imult + 1) fp
        end
        else issue_walk s next e issued ialu imult fp
      else if opc = D.op_fp_alu || opc = D.op_fp_mult then
        if fp < s.fp_units then begin
          start_executing s slot (s.cycle + s.lat.(opc));
          issue_walk s next e (issued + 1) ialu imult (fp + 1)
        end
        else issue_walk s next e issued ialu imult fp
      else if opc = D.op_store then begin
        (* Address generation; data drains to cache at commit. *)
        start_executing s slot (s.cycle + 1);
        issue_walk s next e (issued + 1) ialu imult fp
      end
      else if opc = D.op_load then (
        let addr = s.addr_of.(slot) in
        match older_store_match s s.seq.(slot) addr with
        | `Blocked -> issue_walk s next e issued ialu imult fp
        | `Forward ->
            start_executing s slot (s.cycle + 1);
            issue_walk s next e (issued + 1) ialu imult fp
        | `None ->
            start_executing s slot (memory_read s ~now:s.cycle addr);
            issue_walk s next e (issued + 1) ialu imult fp)
      else begin
        (* accel *)
        let ti = s.tr_idx.(slot) in
        let u = D.accel_unit s.d ti in
        if accel_speculative s slot || slot = s.head then begin
          issue_accel s slot ti u;
          issue_walk s next e (issued + 1) ialu imult fp
        end
        else begin
          Tca_unit.State.wait_for_head s.units u;
          issue_walk s next e issued ialu imult fp
        end
      end

let issue_stage s =
  if s.iq_count = 0 then 0
  else
    issue_walk s s.head (if s.tail > s.head then s.tail else s.rob) 0 0 0 0

let rec dispatch_loop s dispatched =
  if dispatched >= s.dispatch_width then dispatched
  else if s.next_fetch >= s.tlen then begin
    s.stall_reason <- stall_drained;
    dispatched
  end
  else if s.cycle < s.fetch_resume_at then begin
    s.stall_reason <- stall_redirect;
    dispatched
  end
  else if s.serialize_slot >= 0 then begin
    s.stall_reason <- stall_serialize;
    dispatched
  end
  else if s.count = s.rob then begin
    s.stall_reason <- stall_rob;
    dispatched
  end
  else if s.iq_count = s.iq_size then begin
    s.stall_reason <- stall_iq;
    dispatched
  end
  else begin
    let ti = s.next_fetch in
    let u = s.u in
    D.read s.d ti u;
    let opc = u.D.op in
    let is_mem = opc = D.op_load || opc = D.op_store in
    if is_mem && s.lsq_count = s.lsq_size then begin
      s.stall_reason <- stall_lsq;
      dispatched
    end
    else begin
      (* Configuration gate of the invocation's unit ((T1)-(T3)). *)
      let cfg_block =
        if opc <> D.op_accel then stall_none
        else
          match
            Tca_unit.State.gate s.units (D.accel_unit s.d ti) ~instr:ti
              ~cycle:s.cycle
          with
          | Tca_unit.State.Go -> stall_none
          | Tca_unit.State.Config_write -> stall_config
          | Tca_unit.State.Config_queue -> stall_config_queue
      in
      if cfg_block <> stall_none then begin
        s.stall_reason <- cfg_block;
        dispatched
      end
      else begin
      let slot = s.tail in
      s.tail <- wrap s (s.tail + 1);
      s.count <- s.count + 1;
      s.tr_idx.(slot) <- ti;
      s.op_of.(slot) <- opc;
      s.st.(slot) <- st_waiting;
      s.seq.(slot) <- s.next_seq;
      s.next_seq <- s.next_seq + 1;
      let pending =
        wait_on s slot 0 u.D.src1 + wait_on s slot 1 u.D.src2
      in
      s.producer_pending.(slot) <- pending;
      if pending = 0 then set_ready s slot;
      let dst = u.D.dst in
      s.dst_of.(slot) <- dst;
      if dst >= 0 then begin
        s.ren_slot.(dst) <- slot;
        s.ren_seq.(dst) <- s.seq.(slot)
      end;
      s.iq_count <- s.iq_count + 1;
      if is_mem then begin
        s.addr_of.(slot) <- u.D.operand;
        s.lsq_count <- s.lsq_count + 1;
        if opc = D.op_store then begin
          s.stq.(wrap s (s.stq_head + s.stq_count)) <- slot;
          s.stq_count <- s.stq_count + 1
        end
      end;
      if opc = D.op_branch then begin
        s.branches <- s.branches + 1;
        if not s.bp_perfect then begin
          let pc = u.D.operand in
          let taken = u.D.taken in
          let predicted = Bpred.predict s.bp ~pc in
          Bpred.update s.bp ~pc ~taken;
          if predicted <> taken then begin
            s.mispredicts <- s.mispredicts + 1;
            s.pending_redirect <- slot;
            s.pending_redirect_seq <- s.seq.(slot);
            s.fetch_resume_at <- max_int;
            match s.telemetry with
            | None -> ()
            | Some sink ->
                Tca_telemetry.Sink.instant sink ~cat:"branch"
                  ~args:[ ("pc", Tca_util.Json.Int pc) ]
                  ~ts:(float_of_int s.cycle) "flush.mispredict"
          end
        end
      end
      else if opc = D.op_accel then begin
        let u = D.accel_unit s.d ti in
        s.occupancy_at_accel_sum <- s.occupancy_at_accel_sum + s.count - 1;
        if not s.allow_trailing then s.serialize_slot <- slot;
        s.cfg_ready.(slot) <-
          Tca_unit.State.dispatch s.units u ~cycle:s.cycle;
        match s.telemetry with
        | None -> ()
        | Some sink ->
            Tca_telemetry.Sink.instant sink ~cat:"accel"
              ~args:
                (("rob_occupancy", Tca_util.Json.Int (s.count - 1))
                :: (if s.n_units > 1 then [ ("unit", Tca_util.Json.Int u) ]
                    else []))
              ~ts:(float_of_int s.cycle) "accel.dispatch"
      end;
      s.next_fetch <- s.next_fetch + 1;
      dispatch_loop s (dispatched + 1)
      end
    end
  end

(* Charges [k] cycles to stall reason [r]. *)
let count_stall s r k =
  if r = stall_drained then s.stall_drained <- s.stall_drained + k
  else if r = stall_redirect then s.stall_redirect <- s.stall_redirect + k
  else if r = stall_serialize then begin
    s.stall_serialize <- s.stall_serialize + k;
    Tca_unit.State.add_serialize_stalls s.units k
  end
  else if r = stall_rob then s.stall_rob <- s.stall_rob + k
  else if r = stall_iq then s.stall_iq <- s.stall_iq + k
  else if r = stall_lsq then s.stall_lsq <- s.stall_lsq + k
  else if r = stall_config then s.stall_config <- s.stall_config + k
  else if r = stall_config_queue then
    s.stall_config_queue <- s.stall_config_queue + k

let dispatch_stage s =
  s.stall_reason <- stall_none;
  let dispatched = dispatch_loop s 0 in
  (* Attribute the cycle to a stall reason only when nothing at all was
     dispatched: that is the "zero useful dispatches" notion the model
     reasons about. *)
  if dispatched = 0 then count_stall s s.stall_reason 1;
  dispatched

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

type outcome =
  | Complete of Sim_stats.t
  | Partial of { stats : Sim_stats.t; diag : Tca_util.Diag.t }

let stats_of_outcome = function
  | Complete stats -> stats
  | Partial { stats; _ } -> stats

let default_cycle_budget trace = 100_000 + (500 * Trace.length trace)

(* Per-interval telemetry: a snapshot of the cumulative counters at the
   last flush, so each flush emits exact deltas. Because the final
   (possibly partial) interval is flushed when the run ends, the deltas
   of every series sum to the corresponding [Sim_stats] total by
   construction. *)
type interval_snap = {
  mutable last_cycle : int;  (* cycle of the previous flush *)
  mutable s_rob : int;
  mutable s_iq : int;
  mutable s_lsq : int;
  mutable s_serialize : int;
  mutable s_redirect : int;
  mutable s_drained : int;
  mutable s_committed : int;
  mutable s_occupancy_sum : int;
  mutable acc_dispatched : int;  (* accumulated since the last flush *)
  mutable acc_issued : int;
}

let flush_interval s sink snap ~now =
  let len = now - snap.last_cycle in
  if len > 0 then begin
    let ts = float_of_int now in
    let f = float_of_int in
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.stalls"
      [
        ("rob", f (s.stall_rob - snap.s_rob));
        ("iq", f (s.stall_iq - snap.s_iq));
        ("lsq", f (s.stall_lsq - snap.s_lsq));
        ("serialize", f (s.stall_serialize - snap.s_serialize));
        ("redirect", f (s.stall_redirect - snap.s_redirect));
        ("drained", f (s.stall_drained - snap.s_drained));
      ];
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.pipeline"
      [
        ("committed", f (s.committed - snap.s_committed));
        ("dispatched", f snap.acc_dispatched);
        ("issued", f snap.acc_issued);
      ];
    Tca_telemetry.Sink.counter sink ~cat:"sim" ~ts "sim.rob"
      [
        ("occupancy", f s.count);
        ( "avg",
          float_of_int (s.occupancy_sum - snap.s_occupancy_sum)
          /. float_of_int len );
      ];
    snap.last_cycle <- now;
    snap.s_rob <- s.stall_rob;
    snap.s_iq <- s.stall_iq;
    snap.s_lsq <- s.stall_lsq;
    snap.s_serialize <- s.stall_serialize;
    snap.s_redirect <- s.stall_redirect;
    snap.s_drained <- s.stall_drained;
    snap.s_committed <- s.committed;
    snap.s_occupancy_sum <- s.occupancy_sum;
    snap.acc_dispatched <- 0;
    snap.acc_issued <- 0
  end

let finish_telemetry s sink snap outcome_stats =
  flush_interval s sink snap ~now:s.cycle;
  Tca_telemetry.Sink.span sink ~cat:"sim" ~ts:0.0 ~dur:(float_of_int s.cycle)
    ~args:
      [
        ("committed", Tca_util.Json.Int s.committed);
        ("ipc", Tca_util.Json.Float outcome_stats.Sim_stats.ipc);
        ( "accel_invocations",
          Tca_util.Json.Int outcome_stats.Sim_stats.accel_invocations );
      ]
    "sim.run"

let watchdog_diag s =
  Tca_util.Diag.Watchdog
    { cycles = s.cycle; committed = s.committed; total = s.tlen }

(* After a quiet cycle, the first cycle at which anything can change:
   an executing entry completes, the finished head commits, an
   accelerator write is due, a redirect ends, or the refusing unit's
   configuration gate opens. Until then no operand becomes ready, no
   entry can issue (the head is not waiting: it would issue) and the
   dispatch stall persists. [max_int] when nothing is pending. *)
let next_event s =
  let e = if s.executing > 0 then s.next_complete else max_int in
  let e =
    if s.count > 0 && s.st.(s.head) = st_done then
      imin e (s.complete_at.(s.head) + s.commit_depth)
    else e
  in
  let e = if s.paw_count > 0 then imin e s.paw_next_due else e in
  let r = s.stall_reason in
  if r = stall_redirect then imin e s.fetch_resume_at
  else if r = stall_config || r = stall_config_queue then
    imin e
      (Tca_unit.State.gate_open_at s.units (D.accel_unit s.d s.next_fetch))
  else e

(* Every ready accelerator waited [k] more cycles for the head. *)
let rec replay_head_waits s p k =
  let slot = next_ready s p s.rob in
  if slot < s.rob then begin
    if s.op_of.(slot) = D.op_accel then
      Tca_unit.State.add_head_waits s.units
        (D.accel_unit s.d s.tr_idx.(slot))
        k;
    replay_head_waits s (slot + 1) k
  end

(* Called with [s.cycle] just past a quiet cycle: the cycles before
   [next_event] repeat it exactly, so they are skipped, never past
   [cap + 1] (the watchdog then fires on the cycle and with the snapshot
   stepping would give), and their counters are added in bulk. Nothing
   issued in the quiet cycle, so its issue walk visited every ready
   entry: each ready accelerator waited for the head. *)
let skip_quiet s cap =
  let e = next_event s in
  let target = if e > cap then cap + 1 else e in
  let k = target - s.cycle in
  if k > 0 then begin
    s.occupancy_sum <- s.occupancy_sum + (s.count * k);
    count_stall s s.stall_reason k;
    replay_head_waits s 0 k;
    s.cycle <- target
  end

(* The uninstrumented loop: no per-cycle option match, no interval
   bookkeeping, no probe dispatch — nothing but the four stages, two
   counter updates and the quiet-cycle test. Returns the watchdog
   diagnostic if the budget expired. The watchdog snapshot and the stats
   snapshot are taken at the same instant, so [diag.committed =
   stats.committed] holds by construction. *)
let rec run_fast s cap =
  if s.next_fetch >= s.tlen && s.count = 0 then None
  else if s.cycle > cap then Some (watchdog_diag s)
  else begin
    let executing = s.executing and committed = s.committed in
    complete_stage s;
    commit_stage s;
    let issued = issue_stage s in
    let dispatched = dispatch_stage s in
    s.occupancy_sum <- s.occupancy_sum + s.count;
    s.cycle <- s.cycle + 1;
    (* With nothing issued, [executing] falls only by completions. *)
    if
      issued = 0 && dispatched = 0 && s.executing = executing
      && s.committed = committed
    then skip_quiet s cap;
    run_fast s cap
  end

(* The instrumented loop: per-cycle probe callback, interval
   accumulation, periodic flush. *)
let run_instrumented s cap probe snap =
  let watchdog = ref None in
  while !watchdog = None && (s.next_fetch < s.tlen || s.count > 0) do
    if s.cycle > cap then watchdog := Some (watchdog_diag s)
    else begin
      complete_stage s;
      commit_stage s;
      let issued = issue_stage s in
      let dispatched = dispatch_stage s in
      s.occupancy_sum <- s.occupancy_sum + s.count;
      (match probe with
      | Some p ->
          p.on_cycle ~cycle:s.cycle ~dispatched ~issued
            ~executing:s.executing ~rob_occupancy:s.count
      | None -> ());
      s.cycle <- s.cycle + 1;
      match s.telemetry with
      | None -> ()
      | Some sink ->
          snap.acc_dispatched <- snap.acc_dispatched + dispatched;
          snap.acc_issued <- snap.acc_issued + issued;
          if s.cycle mod Tca_telemetry.Sink.interval sink = 0 then
            flush_interval s sink snap ~now:s.cycle
    end
  done;
  !watchdog

(* A trace invoking a unit id outside [cfg.tca_units] would index the
   per-unit state out of bounds; reject the pairing up front. Only the
   invocations are walked, in trace order. *)
let validate cfg trace =
  match Config.validate cfg with
  | Result.Error _ as e -> e
  | Ok () ->
      let d = Trace.decoded trace in
      let nu = Array.length cfg.Config.tca_units in
      let rec first_bad j =
        if j >= D.invocations d then Ok ()
        else
          let i = D.invocation d j in
          let u = D.accel_unit d i in
          if u < nu then first_bad (j + 1)
          else
            Error
              (Tca_util.Diag.Invalid
                 {
                   field = "Trace";
                   message =
                     Printf.sprintf
                       "instruction %d invokes TCA unit %d but \
                        Config.tca_units defines %d unit(s)"
                       i u nu;
                 })
      in
      first_bad 0

let run ?probe ?telemetry cfg trace =
  match validate cfg trace with
  | Result.Error d -> Result.Error d
  | Ok () ->
      let s = create ?telemetry cfg trace in
      let cap =
        match cfg.Config.max_cycles with
        | Some c -> c
        | None -> default_cycle_budget trace
      in
      let watchdog, snap =
        match (telemetry, probe) with
        | None, None -> (run_fast s cap, None)
        | _ ->
            let snap =
              {
                last_cycle = 0;
                s_rob = 0;
                s_iq = 0;
                s_lsq = 0;
                s_serialize = 0;
                s_redirect = 0;
                s_drained = 0;
                s_committed = 0;
                s_occupancy_sum = 0;
                acc_dispatched = 0;
                acc_issued = 0;
              }
            in
            (run_instrumented s cap probe snap, Some snap)
      in
      let outcome =
        match watchdog with
        | Some diag -> Partial { stats = stats_of s; diag }
        | None -> Complete (stats_of s)
      in
      (match (s.telemetry, snap) with
      | Some sink, Some snap ->
          (match watchdog with
          | Some _ ->
              Tca_telemetry.Sink.instant sink ~cat:"sim"
                ~ts:(float_of_int s.cycle) "sim.watchdog"
          | None -> ());
          finish_telemetry s sink snap (stats_of_outcome outcome)
      | _ -> ());
      Ok outcome

let run_exn ?probe ?telemetry cfg trace =
  match run ?probe ?telemetry cfg trace with
  | Ok (Complete stats) -> stats
  | Ok (Partial { diag; _ }) | Result.Error diag ->
      raise (Tca_util.Diag.Error diag)
