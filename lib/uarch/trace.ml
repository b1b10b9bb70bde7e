module Decoded = struct
  let op_int_alu = 0
  let op_int_mult = 1
  let op_fp_alu = 2
  let op_fp_mult = 3
  let op_load = 4
  let op_store = 5
  let op_branch = 6
  let op_accel = 7

  type t = {
    n : int;
    op : int array;
    src1 : int array;
    src2 : int array;
    dst : int array;
    addr : int array;
    pc : int array;
    taken : bool array;
    accel_lat : int array;
    accel_unit : int array;
    reads_off : int array;
    reads_len : int array;
    writes_off : int array;
    writes_len : int array;
    accel_mem : int array;
  }

  let op_code : Isa.op -> int = function
    | Isa.Int_alu -> op_int_alu
    | Isa.Int_mult -> op_int_mult
    | Isa.Fp_alu -> op_fp_alu
    | Isa.Fp_mult -> op_fp_mult
    | Isa.Load -> op_load
    | Isa.Store -> op_store
    | Isa.Branch -> op_branch
    | Isa.Accel _ -> op_accel

  let of_instrs (instrs : Isa.instr array) =
    let n = Array.length instrs in
    let pool = ref 0 in
    Array.iter
      (fun (ins : Isa.instr) ->
        match ins.Isa.op with
        | Isa.Accel a ->
            pool := !pool + Array.length a.Isa.reads + Array.length a.Isa.writes
        | _ -> ())
      instrs;
    let d =
      {
        n;
        op = Array.make n 0;
        src1 = Array.make n Isa.no_reg;
        src2 = Array.make n Isa.no_reg;
        dst = Array.make n Isa.no_reg;
        addr = Array.make n 0;
        pc = Array.make n 0;
        taken = Array.make n false;
        accel_lat = Array.make n 0;
        accel_unit = Array.make n 0;
        reads_off = Array.make n 0;
        reads_len = Array.make n 0;
        writes_off = Array.make n 0;
        writes_len = Array.make n 0;
        accel_mem = Array.make (max 1 !pool) 0;
      }
    in
    let off = ref 0 in
    Array.iteri
      (fun i (ins : Isa.instr) ->
        d.op.(i) <- op_code ins.Isa.op;
        d.src1.(i) <- ins.Isa.src1;
        d.src2.(i) <- ins.Isa.src2;
        d.dst.(i) <- ins.Isa.dst;
        d.addr.(i) <- ins.Isa.addr;
        d.pc.(i) <- ins.Isa.pc;
        d.taken.(i) <- ins.Isa.taken;
        match ins.Isa.op with
        | Isa.Accel a ->
            let nr = Array.length a.Isa.reads in
            let nw = Array.length a.Isa.writes in
            d.accel_lat.(i) <- a.Isa.compute_latency;
            d.accel_unit.(i) <- a.Isa.unit_id;
            d.reads_off.(i) <- !off;
            d.reads_len.(i) <- nr;
            Array.blit a.Isa.reads 0 d.accel_mem !off nr;
            off := !off + nr;
            d.writes_off.(i) <- !off;
            d.writes_len.(i) <- nw;
            Array.blit a.Isa.writes 0 d.accel_mem !off nw;
            off := !off + nw
        | _ -> ())
      instrs;
    d
end

type t = { instrs : Isa.instr array; mutable decoded_ : Decoded.t option }

let validate instrs =
  let check_reg r = r = Isa.no_reg || (r >= 0 && r < Isa.num_arch_regs) in
  let bad = ref None in
  Array.iteri
    (fun i (ins : Isa.instr) ->
      if !bad = None then
        if not (check_reg ins.src1 && check_reg ins.src2 && check_reg ins.dst)
        then bad := Some (i, "register out of range")
        else if ins.addr < 0 then bad := Some (i, "negative address")
        else
          match ins.op with
          | Isa.Accel a ->
              if a.unit_id < 0 then bad := Some (i, "negative accel unit id")
              else if a.compute_latency < 0 then
                bad := Some (i, "negative accel latency")
              else if
                Array.exists (fun x -> x < 0) a.reads
                || Array.exists (fun x -> x < 0) a.writes
              then bad := Some (i, "negative accel address")
              else if
                Array.length a.reads = 0
                && Array.length a.writes = 0
                && a.compute_latency = 0
              then
                bad :=
                  Some
                    ( i,
                      "no-op accel (no reads, no writes, zero compute \
                       latency)" )
          | _ -> ())
    instrs;
  match !bad with
  | None -> Ok ()
  | Some (i, msg) -> Error (Printf.sprintf "instruction %d: %s" i msg)

let of_array instrs =
  match validate instrs with
  | Ok () -> { instrs; decoded_ = None }
  | Error msg -> invalid_arg ("Trace.of_array: " ^ msg)

let length t = Array.length t.instrs
let get t i = t.instrs.(i)
let iter f t = Array.iter f t.instrs

(* Memoized: decoding is pure, so the benign race when two domains
   decode the same trace concurrently only wastes work (both build the
   same value; one pointer store wins). Callers that fan a trace out
   across domains should still decode eagerly first — see
   [Simulator.run_batch]. *)
let decoded t =
  match t.decoded_ with
  | Some d -> d
  | None ->
      let d = Decoded.of_instrs t.instrs in
      t.decoded_ <- Some d;
      d

type counts = {
  total : int;
  int_alu : int;
  int_mult : int;
  fp_alu : int;
  fp_mult : int;
  loads : int;
  stores : int;
  branches : int;
  accels : int;
}

let counts t =
  let c =
    ref
      {
        total = Array.length t.instrs;
        int_alu = 0;
        int_mult = 0;
        fp_alu = 0;
        fp_mult = 0;
        loads = 0;
        stores = 0;
        branches = 0;
        accels = 0;
      }
  in
  iter
    (fun ins ->
      let x = !c in
      c :=
        (match ins.Isa.op with
        | Isa.Int_alu -> { x with int_alu = x.int_alu + 1 }
        | Isa.Int_mult -> { x with int_mult = x.int_mult + 1 }
        | Isa.Fp_alu -> { x with fp_alu = x.fp_alu + 1 }
        | Isa.Fp_mult -> { x with fp_mult = x.fp_mult + 1 }
        | Isa.Load -> { x with loads = x.loads + 1 }
        | Isa.Store -> { x with stores = x.stores + 1 }
        | Isa.Branch -> { x with branches = x.branches + 1 }
        | Isa.Accel _ -> { x with accels = x.accels + 1 }))
    t;
  !c

let counts_to_json c =
  let open Tca_util.Json in
  Obj
    [
      ("total", Int c.total);
      ("int_alu", Int c.int_alu);
      ("int_mult", Int c.int_mult);
      ("fp_alu", Int c.fp_alu);
      ("fp_mult", Int c.fp_mult);
      ("loads", Int c.loads);
      ("stores", Int c.stores);
      ("branches", Int c.branches);
      ("accels", Int c.accels);
    ]

(* Textual interchange format, one instruction per line:
     <pc> <op> <dst> <src1> <src2> <addr> <taken>
   with op one of the names from Isa.op_name; accel lines append
     <compute_latency> <n_reads> <reads...> <n_writes> <writes...>
   and, only for a non-zero unit id, one trailing <unit_id> field —
   so single-unit traces round-trip byte-identically with files written
   before unit ids existed, and old parsers' inputs stay valid. *)

let instr_to_line (i : Isa.instr) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf
    (Printf.sprintf "%d %s %d %d %d %d %b" i.Isa.pc (Isa.op_name i.Isa.op)
       i.Isa.dst i.Isa.src1 i.Isa.src2 i.Isa.addr i.Isa.taken);
  (match i.Isa.op with
  | Isa.Accel a ->
      Buffer.add_string buf (Printf.sprintf " %d %d" a.Isa.compute_latency
          (Array.length a.Isa.reads));
      Array.iter (fun r -> Buffer.add_string buf (Printf.sprintf " %d" r)) a.Isa.reads;
      Buffer.add_string buf (Printf.sprintf " %d" (Array.length a.Isa.writes));
      Array.iter (fun w -> Buffer.add_string buf (Printf.sprintf " %d" w)) a.Isa.writes;
      if a.Isa.unit_id <> 0 then
        Buffer.add_string buf (Printf.sprintf " %d" a.Isa.unit_id)
  | _ -> ());
  Buffer.contents buf

let to_channel oc t =
  Printf.fprintf oc "tca-trace 1 %d\n" (length t);
  iter (fun i -> output_string oc (instr_to_line i ^ "\n")) t

let parse_line lineno line =
  let fail msg = failwith (Printf.sprintf "Trace.of_channel: line %d: %s" lineno msg) in
  let fields = String.split_on_char ' ' (String.trim line) in
  let int_of s = match int_of_string_opt s with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad integer %S" s)
  in
  let reg_of name s =
    let r = int_of s in
    if r <> Isa.no_reg && (r < 0 || r >= Isa.num_arch_regs) then
      fail (Printf.sprintf "%s register %d out of range" name r);
    r
  in
  match fields with
  | pc :: op_name :: dst :: src1 :: src2 :: addr :: taken :: rest ->
      let pc = int_of pc and dst = reg_of "dst" dst in
      let src1 = reg_of "src1" src1 in
      let src2 = reg_of "src2" src2 and addr = int_of addr in
      let taken = match bool_of_string_opt taken with
        | Some b -> b
        | None -> fail (Printf.sprintf "bad boolean %S" taken)
      in
      let op =
        match (op_name, rest) with
        | "int_alu", [] -> Isa.Int_alu
        | "int_mult", [] -> Isa.Int_mult
        | "fp_alu", [] -> Isa.Fp_alu
        | "fp_mult", [] -> Isa.Fp_mult
        | "load", [] -> Isa.Load
        | "store", [] -> Isa.Store
        | "branch", [] -> Isa.Branch
        | "accel", lat :: n_reads :: rest ->
            let lat = int_of lat and n_reads = int_of n_reads in
            if List.length rest < n_reads + 1 then fail "truncated accel reads";
            let reads = Array.of_list (List.filteri (fun i _ -> i < n_reads) rest |> List.map int_of) in
            let rest = List.filteri (fun i _ -> i >= n_reads) rest in
            (match rest with
            | n_writes :: ws ->
                let n_writes = int_of n_writes in
                let n_ws = List.length ws in
                let unit_id =
                  (* Exactly [n_writes] fields: a classic single-unit
                     line; one extra trailing field: the unit id. *)
                  if n_ws = n_writes then 0
                  else if n_ws = n_writes + 1 then begin
                    let u = int_of (List.nth ws n_writes) in
                    if u < 0 then fail "negative accel unit id";
                    u
                  end
                  else fail "truncated accel writes"
                in
                Isa.Accel
                  {
                    Isa.unit_id;
                    compute_latency = lat;
                    reads;
                    writes =
                      Array.of_list
                        (List.filteri (fun i _ -> i < n_writes) ws
                        |> List.map int_of);
                  }
            | [] -> fail "missing accel write count")
        | name, _ -> fail (Printf.sprintf "bad op %S or trailing fields" name)
      in
      { Isa.pc; op; dst; src1; src2; addr; taken }
  | _ -> fail "too few fields"

let of_channel ic =
  let header = try input_line ic with End_of_file -> failwith "Trace.of_channel: empty input" in
  let count =
    match String.split_on_char ' ' (String.trim header) with
    | [ "tca-trace"; "1"; n ] -> (
        match int_of_string_opt n with
        | Some c when c >= 0 -> c
        | Some _ | None -> failwith "Trace.of_channel: bad count in header")
    | _ -> failwith "Trace.of_channel: bad header (expected 'tca-trace 1 <count>')"
  in
  let instrs =
    Array.init count (fun i ->
        match input_line ic with
        | line -> parse_line (i + 2) line
        | exception End_of_file ->
            failwith
              (Printf.sprintf "Trace.of_channel: expected %d instructions, got %d" count i))
  in
  (match input_line ic with
  | line ->
      if String.trim line <> "" then
        failwith
          (Printf.sprintf
             "Trace.of_channel: line %d: trailing garbage after %d \
              instructions"
             (count + 2) count)
  | exception End_of_file -> ());
  of_array instrs

let save path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc t)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

module Builder = struct
  type builder = {
    mutable buf : Isa.instr array;
    mutable len : int;
  }

  type t = builder

  let dummy = Isa.int_alu ~dst:0 ()

  let create ?(capacity = 1024) () =
    { buf = Array.make (max 16 capacity) dummy; len = 0 }

  let grow b =
    let cap = Array.length b.buf in
    let nbuf = Array.make (2 * cap) dummy in
    Array.blit b.buf 0 nbuf 0 b.len;
    b.buf <- nbuf

  let add b ins =
    if b.len = Array.length b.buf then grow b;
    b.buf.(b.len) <- { ins with Isa.pc = 4 * b.len };
    b.len <- b.len + 1

  let add_at_site b ins =
    if b.len = Array.length b.buf then grow b;
    b.buf.(b.len) <- ins;
    b.len <- b.len + 1

  let length b = b.len
  let build b = of_array (Array.sub b.buf 0 b.len)
end
