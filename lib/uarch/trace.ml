module Decoded = struct
  let op_int_alu = 0
  let op_int_mult = 1
  let op_fp_alu = 2
  let op_fp_mult = 3
  let op_load = 4
  let op_store = 5
  let op_branch = 6
  let op_accel = 7

  (* Per uop, four bytes of [codes] and one int of [operands]. Byte [4i]
     holds the op code (bits 0-2) and the taken bit (bit 3); bytes
     [4i+1] to [4i+3] hold src1, src2 and dst, each as register + 1 so
     [Isa.no_reg] packs as 0. [operands] holds the address of a load or
     store, the pc of a branch, the side-table index of an invocation,
     and 0 otherwise. Invocation [j] of the side table is uop
     [acc_instr.(j)]; its reads are [pool.(acc_span.(2j) ..
     acc_span.(2j+1) - 1)] and its writes run on to
     [acc_span.(2j+2) - 1]. *)
  type t = {
    codes : Bytes.t;
    operands : int array;
    acc_instr : int array;
    acc_lat : int array;
    acc_unit : int array;
    acc_span : int array;
    pool : int array;
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

  let byte d k = Char.code (Bytes.get d.codes k)
  let length d = Bytes.length d.codes / 4
  let op d i = byte d (4 * i) land 7
  let taken d i = byte d (4 * i) land 8 <> 0
  let src1 d i = byte d ((4 * i) + 1) - 1
  let src2 d i = byte d ((4 * i) + 2) - 1
  let dst d i = byte d ((4 * i) + 3) - 1
  let addr d i = d.operands.(i)
  let pc d i = d.operands.(i)
  let accel_lat d i = d.acc_lat.(d.operands.(i))
  let accel_unit d i = d.acc_unit.(d.operands.(i))
  let reads_off d i = d.acc_span.(2 * d.operands.(i))
  let writes_off d i = d.acc_span.((2 * d.operands.(i)) + 1)
  let reads_len d i = writes_off d i - reads_off d i
  let writes_len d i = d.acc_span.((2 * d.operands.(i)) + 2) - writes_off d i
  let pool d k = d.pool.(k)
  let invocations d = Array.length d.acc_instr
  let invocation d j = d.acc_instr.(j)

  type uop = {
    mutable op : int;
    mutable taken : bool;
    mutable src1 : int;
    mutable src2 : int;
    mutable dst : int;
    mutable operand : int;
  }

  let uop () =
    {
      op = 0;
      taken = false;
      src1 = Isa.no_reg;
      src2 = Isa.no_reg;
      dst = Isa.no_reg;
      operand = 0;
    }

  let read d i u =
    u.operand <- d.operands.(i);
    (* In bounds: [codes] holds four bytes for each of the [operands],
       and indexing those just checked [i]. *)
    let k = 4 * i in
    let c = Char.code (Bytes.unsafe_get d.codes k) in
    u.op <- c land 7;
    u.taken <- c land 8 <> 0;
    u.src1 <- Char.code (Bytes.unsafe_get d.codes (k + 1)) - 1;
    u.src2 <- Char.code (Bytes.unsafe_get d.codes (k + 2)) - 1;
    u.dst <- Char.code (Bytes.unsafe_get d.codes (k + 3)) - 1

  (* Expects a validated trace, so every register + 1 fits its byte. *)
  let () = assert (Isa.num_arch_regs < 256)

  let pack (instrs : Isa.instr array) =
    let n = Array.length instrs in
    let m = ref 0 and pool_len = ref 0 in
    Array.iter
      (fun (ins : Isa.instr) ->
        match ins.Isa.op with
        | Isa.Accel a ->
            incr m;
            pool_len :=
              !pool_len + Array.length a.Isa.reads + Array.length a.Isa.writes
        | _ -> ())
      instrs;
    let m = !m in
    let d =
      {
        codes = Bytes.create (4 * n);
        operands = Array.make n 0;
        acc_instr = Array.make m 0;
        acc_lat = Array.make m 0;
        acc_unit = Array.make m 0;
        acc_span = Array.make ((2 * m) + 1) 0;
        pool = Array.make !pool_len 0;
      }
    in
    let j = ref 0 and off = ref 0 in
    for i = 0 to n - 1 do
      let ins = instrs.(i) in
      let k = 4 * i in
      Bytes.set d.codes k
        (Char.chr (op_code ins.Isa.op lor if ins.Isa.taken then 8 else 0));
      Bytes.set d.codes (k + 1) (Char.chr (ins.Isa.src1 + 1));
      Bytes.set d.codes (k + 2) (Char.chr (ins.Isa.src2 + 1));
      Bytes.set d.codes (k + 3) (Char.chr (ins.Isa.dst + 1));
      match ins.Isa.op with
      | Isa.Load | Isa.Store -> d.operands.(i) <- ins.Isa.addr
      | Isa.Branch -> d.operands.(i) <- ins.Isa.pc
      | Isa.Accel a ->
          let j' = !j in
          d.operands.(i) <- j';
          d.acc_instr.(j') <- i;
          d.acc_lat.(j') <- a.Isa.compute_latency;
          d.acc_unit.(j') <- a.Isa.unit_id;
          let blit span =
            Array.blit span 0 d.pool !off (Array.length span);
            off := !off + Array.length span
          in
          blit a.Isa.reads;
          d.acc_span.((2 * j') + 1) <- !off;
          blit a.Isa.writes;
          d.acc_span.((2 * j') + 2) <- !off;
          j := j' + 1
      | Isa.Int_alu | Isa.Int_mult | Isa.Fp_alu | Isa.Fp_mult -> ()
    done;
    d
end

type t = { instrs : Isa.instr array; decoded : Decoded.t }

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
  | Ok () -> { instrs; decoded = Decoded.pack instrs }
  | Error msg -> invalid_arg ("Trace.of_array: " ^ msg)

let length t = Array.length t.instrs
let get t i = t.instrs.(i)
let iter f t = Array.iter f t.instrs

let decoded t = t.decoded

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

(* The header's count is checked against the lines actually read, never
   trusted for an allocation: a short file claiming a huge count fails at
   its end having held only what it contains. *)
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
  let b = Builder.create () in
  let rec read () =
    let got = Builder.length b in
    match input_line ic with
    | exception End_of_file ->
        if got < count then
          failwith
            (Printf.sprintf "Trace.of_channel: expected %d instructions, got %d"
               count got)
    | line when got < count ->
        Builder.add_at_site b (parse_line (got + 2) line);
        read ()
    | line ->
        if String.trim line <> "" then
          failwith
            (Printf.sprintf
               "Trace.of_channel: line %d: trailing garbage after %d \
                instructions"
               (count + 2) count)
  in
  read ();
  Builder.build b

let save path t =
  Tca_util.Diag.ok_exn
    (Tca_util.Atomic_file.write_with path (fun oc -> to_channel oc t))

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)
