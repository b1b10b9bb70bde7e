open Tca_uarch

type config = {
  branch_every : int;
  hard_branch_fraction : float;
  branch_bias : float;
  load_every : int;
  store_every : int;
  mult_every : int;
  fp_every : int;
  working_set_bytes : int;
  dep_window : int;
  n_branch_sites : int;
}

let default_config =
  {
    branch_every = 6;
    hard_branch_fraction = 0.05;
    branch_bias = 0.97;
    load_every = 4;
    store_every = 9;
    mult_every = 17;
    fp_every = 13;
    working_set_bytes = 16 * 1024;
    dep_window = 12;
    n_branch_sites = 64;
  }

let model_friendly_config =
  {
    default_config with
    branch_every = 8;
    hard_branch_fraction = 0.0;
    branch_bias = 0.998;
    dep_window = 16;
  }

let data_base = 0x0010_0000

(* A static branch site models one fixed instruction: constant PC,
   constant source register (real code cannot change its operand between
   executions of the same instruction), per-site direction bias. *)
type site = { pc : int; bias : float; src : int }

type t = {
  cfg : config;
  rng : Tca_util.Prng.t;
  sites : site array;
  reg_base : int;
  mutable emitted : int;
  mutable next_dst : int;
  mutable defined : int;
      (** window registers written so far, so sources never read a
          register before its first definition *)
}

let create ?(config = default_config) ?(site_base = 0x8000) ?(reg_base = 0)
    ~rng () =
  if config.dep_window < 2 || config.dep_window > 40 then
    invalid_arg "Codegen.create: dep_window out of [2, 40]";
  if reg_base < 0 || reg_base + config.dep_window > Isa.num_arch_regs then
    invalid_arg "Codegen.create: register window out of the architectural file";
  if config.n_branch_sites < 1 then
    invalid_arg "Codegen.create: need at least one branch site";
  if config.working_set_bytes < 64 then
    invalid_arg "Codegen.create: working set below one line";
  if config.branch_bias < 0.5 || config.branch_bias > 1.0 then
    invalid_arg "Codegen.create: branch_bias out of [0.5, 1]";
  let sites =
    Array.init config.n_branch_sites (fun i ->
        let hard = Tca_util.Prng.bernoulli rng config.hard_branch_fraction in
        let bias =
          if hard then 0.5
          else if Tca_util.Prng.bool rng then config.branch_bias
          else 1.0 -. config.branch_bias
        in
        {
          pc = site_base + (4 * i);
          bias;
          src = reg_base + Tca_util.Prng.int rng config.dep_window;
        })
  in
  {
    cfg = config;
    rng;
    sites;
    reg_base;
    emitted = 0;
    next_dst = 0;
    defined = 0;
  }

(* Destination registers cycle through [reg_base, reg_base + dep_window);
   sources reach a few registers back, creating dependence chains of
   controlled depth. *)
let fresh_dst t =
  let d = t.next_dst in
  t.next_dst <- (t.next_dst + 1) mod t.cfg.dep_window;
  if t.defined < t.cfg.dep_window then t.defined <- t.defined + 1;
  t.reg_base + d

(* Always consumes exactly one PRNG draw so the stream stays aligned
   whatever the warm-up state; before the first definition there is
   nothing to read and the operand is omitted. *)
let recent_src t =
  let back = 1 + Tca_util.Prng.int t.rng (t.cfg.dep_window - 1) in
  if t.defined = 0 then Isa.no_reg
  else
    let back = 1 + ((back - 1) mod min t.defined (t.cfg.dep_window - 1)) in
    t.reg_base
    + ((t.next_dst - back + (2 * t.cfg.dep_window)) mod t.cfg.dep_window)

let random_addr t =
  let lines = t.cfg.working_set_bytes / 64 in
  data_base
  + (64 * Tca_util.Prng.int t.rng lines)
  + (8 * Tca_util.Prng.int t.rng 8)

let due t every = every > 0 && t.emitted mod every = every - 1

(* Operands are drawn with explicit lets so every source is selected
   before [fresh_dst] advances the window — an instruction must never
   read the register it is about to define. *)
let emit t b =
  let c = t.cfg in
  (if due t c.branch_every then begin
     let site = Tca_util.Prng.choose t.rng t.sites in
     let taken = Tca_util.Prng.bernoulli t.rng site.bias in
     (* The site's fixed operand register, once it has been defined. *)
     let src1 =
       if site.src - t.reg_base < t.defined then site.src else Isa.no_reg
     in
     Trace.Builder.add_at_site b (Isa.branch ~pc:site.pc ~src1 ~taken ())
   end
   else if due t c.load_every then begin
     let base = recent_src t in
     let addr = random_addr t in
     let dst = fresh_dst t in
     Trace.Builder.add b (Isa.load ~base ~dst ~addr ())
   end
   else if due t c.store_every then begin
     let base = recent_src t in
     let src = recent_src t in
     let addr = random_addr t in
     Trace.Builder.add b (Isa.store ~base ~src ~addr ())
   end
   else begin
     let src1 = recent_src t in
     let src2 = recent_src t in
     let dst = fresh_dst t in
     if due t c.mult_every then
       Trace.Builder.add b (Isa.int_mult ~src1 ~src2 ~dst ())
     else if due t c.fp_every then
       Trace.Builder.add b (Isa.fp_alu ~src1 ~src2 ~dst ())
     else Trace.Builder.add b (Isa.int_alu ~src1 ~src2 ~dst ())
   end);
  t.emitted <- t.emitted + 1

let emit_block t b n =
  for _ = 1 to n do
    emit t b
  done

let call_sites ?config ~app_rng ~gap_rng ~mean_gap calls emit =
  let gen = create ?config ~rng:app_rng () in
  let b = Trace.Builder.create () in
  let half = max 1 (mean_gap / 2) in
  Array.iter
    (fun call ->
      if mean_gap > 0 then
        emit_block gen b
          (Tca_util.Prng.int_in gap_rng (mean_gap - half) (mean_gap + half));
      emit b call)
    calls;
  Trace.Builder.build b
