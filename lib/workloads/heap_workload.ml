open Tca_uarch
open Tca_heap

type config = {
  n_calls : int;
  app_instrs_per_call : int;
  app : Codegen.config;
  seed : int;
}

let config ?(app = Codegen.model_friendly_config) ?(seed = 1) ~n_calls
    ~app_instrs_per_call () =
  if n_calls <= 0 then invalid_arg "Heap_workload.config: n_calls must be positive";
  if app_instrs_per_call < 0 then
    invalid_arg "Heap_workload.config: negative app_instrs_per_call";
  { n_calls; app_instrs_per_call; app; seed }

let avg_call_uops =
  float_of_int (Cost_model.malloc_uops + Cost_model.free_uops) /. 2.0

let expected_call_fraction cfg =
  avg_call_uops /. (avg_call_uops +. float_of_int cfg.app_instrs_per_call)

(* The register application code uses to hand a pointer to free. Kept
   outside both the codegen window and the heap sequences' registers. *)
let ptr_reg = 46

type call = Malloc of int (* class *) | Free of int (* class *)

(* Pre-plan the call sequence against a real allocator so both variants
   perform the identical operations, and pre-warm the free lists so every
   malloc hits (the accelerated common case). *)
let plan_calls rng cfg =
  let heap = Tcmalloc.create () in
  let warm = (cfg.n_calls / 2) + 8 in
  let stash = Array.init warm (fun _ -> Tcmalloc.malloc heap (1 + Tca_util.Prng.int rng 128)) in
  Array.iter (Tcmalloc.free heap) stash;
  let live = ref [] in
  let n_live = ref 0 in
  let calls =
    Array.init cfg.n_calls (fun _ ->
        let do_malloc =
          !n_live = 0
          || (Tca_util.Prng.bool rng && Tcmalloc.malloc_hits_free_list heap 1)
        in
        if do_malloc then begin
          let size = 1 + Tca_util.Prng.int rng Size_class.max_small_size in
          let addr = Tcmalloc.malloc heap size in
          let cls = Option.get (Tcmalloc.class_of_block heap addr) in
          live := addr :: !live;
          incr n_live;
          Malloc cls
        end
        else begin
          match !live with
          | [] -> assert false
          | addr :: rest ->
              let cls = Option.get (Tcmalloc.class_of_block heap addr) in
              Tcmalloc.free heap addr;
              live := rest;
              decr n_live;
              Free cls
        end)
  in
  (calls, heap)

let generate cfg =
  let plan_rng = Tca_util.Prng.create (cfg.seed + 0x11ea) in
  let calls, heap = plan_calls plan_rng cfg in
  let build variant =
    let heap_rng = Tca_util.Prng.create (cfg.seed + 0xf111) in
    Codegen.call_sites ~config:cfg.app
      ~app_rng:(Tca_util.Prng.create (cfg.seed + 0xa44))
      ~gap_rng:(Tca_util.Prng.create (cfg.seed + 0x9a4))
      ~mean_gap:cfg.app_instrs_per_call calls
      (fun b call ->
        match call with
        | Malloc cls ->
            let head_addr = Tcmalloc.freelist_head_addr heap cls in
            (match variant with
            | `Baseline -> Cost_model.emit_malloc b ~rng:heap_rng ~head_addr
            | `Accelerated -> Cost_model.emit_malloc_accel b);
            (* Application consumes the returned pointer right away: a
               store through it and a dependent reload. The address must
               stay clear of everything the allocator sequences touch —
               free-list heads at [head_addr .. head_addr+16] and filler
               metadata at [head_addr+64 .. head_addr+191] — because in
               the accelerated variant those writes belong to the
               (opaque) accelerator, and an aliasing application store
               would make the two variants' memory images diverge. *)
            let block_addr = head_addr + 0x400 in
            Trace.Builder.add b
              (Isa.store ~base:Cost_model.result_reg ~addr:block_addr ());
            Trace.Builder.add b
              (Isa.load ~base:Cost_model.result_reg ~dst:ptr_reg ~addr:block_addr ())
        | Free cls ->
            let head_addr = Tcmalloc.freelist_head_addr heap cls in
            (* The pointer argument comes from application state. *)
            Trace.Builder.add b (Isa.int_alu ~src1:ptr_reg ~dst:ptr_reg ());
            (match variant with
            | `Baseline ->
                Cost_model.emit_free b ~rng:heap_rng ~head_addr ~ptr_reg
            | `Accelerated -> Cost_model.emit_free_accel b ~ptr_reg))
  in
  let baseline = build `Baseline in
  let accelerated = build `Accelerated in
  Meta.make ~name:"heap" ~baseline ~accelerated
    ~compute_latency:Cost_model.accel_latency ()
