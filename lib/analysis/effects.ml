open Tca_uarch

type loc = Reg of int | Mem of int | Line of int

type node =
  | Zero
  | Init_reg of int
  | Init_mem of int
  | Init_line of int
  | Op of { idx : int; cls : int; args : int array }
  | Accel_app of { idx : int; ord : int; unit : int; args : int array }
  | Accel_out of { app : int; loc : loc }

type t = {
  nodes : node array;
  instr_node : int array;
  regs : int array;
  reg_written : bool array;
  mem : (int, int) Hashtbl.t;
  line_owner : (int, int) Hashtbl.t;
  accels : int array;
  line_bytes : int;
}

(* Growable arena; argument node ids are always created before the node
   that references them, so the arena order is a topological order — the
   evaluator below exploits this to run as one forward pass. *)
type arena = { mutable buf : node array; mutable len : int }

let arena_push a n =
  if a.len = Array.length a.buf then begin
    let buf = Array.make (max 16 (2 * a.len)) Zero in
    Array.blit a.buf 0 buf 0 a.len;
    a.buf <- buf
  end;
  a.buf.(a.len) <- n;
  a.len <- a.len + 1;
  a.len - 1

let line_of ~line_bytes addr = addr / line_bytes * line_bytes

let cls_of op = Trace.Decoded.op_code op

(* Sorted exact-address cells currently live inside one line. *)
let line_cells line_keys mem l =
  match Hashtbl.find_opt line_keys l with
  | None -> []
  | Some addrs ->
      List.filter (Hashtbl.mem mem) (List.sort_uniq compare !addrs)

let summarize ?(line_bytes = 64) instrs =
  let n = Array.length instrs in
  let ar = { buf = Array.make (max 16 (2 * n)) Zero; len = 0 } in
  let zero = arena_push ar Zero in
  let regs = Array.init Isa.num_arch_regs (fun r -> arena_push ar (Init_reg r)) in
  let reg_written = Array.make Isa.num_arch_regs false in
  let mem : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let line_keys : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let line_owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let instr_node = Array.make (max n 1) (-1) in
  let accels_rev = ref [] in
  let n_accels = ref 0 in
  let reg_term r = if r = Isa.no_reg then zero else regs.(r) in
  let line_base_term l =
    match Hashtbl.find_opt line_owner l with
    | Some app -> arena_push ar (Accel_out { app; loc = Line l })
    | None -> arena_push ar (Init_line l)
  in
  let mem_term addr =
    match Hashtbl.find_opt mem addr with
    | Some id -> id
    | None -> (
        match Hashtbl.find_opt line_owner (line_of ~line_bytes addr) with
        | Some app -> arena_push ar (Accel_out { app; loc = Mem addr })
        | None -> arena_push ar (Init_mem addr))
  in
  let bind_mem addr id =
    if not (Hashtbl.mem mem addr) then begin
      let l = line_of ~line_bytes addr in
      match Hashtbl.find_opt line_keys l with
      | Some cells -> cells := addr :: !cells
      | None -> Hashtbl.add line_keys l (ref [ addr ])
    end;
    Hashtbl.replace mem addr id
  in
  Array.iteri
    (fun i (ins : Isa.instr) ->
      let cls = cls_of ins.Isa.op in
      match ins.Isa.op with
      | Isa.Int_alu | Isa.Int_mult | Isa.Fp_alu | Isa.Fp_mult ->
          let args = [| reg_term ins.Isa.src1; reg_term ins.Isa.src2 |] in
          let id = arena_push ar (Op { idx = i; cls; args }) in
          instr_node.(i) <- id;
          if ins.Isa.dst <> Isa.no_reg then begin
            regs.(ins.Isa.dst) <- id;
            reg_written.(ins.Isa.dst) <- true
          end
      | Isa.Load ->
          let args = [| reg_term ins.Isa.src1; mem_term ins.Isa.addr |] in
          let id = arena_push ar (Op { idx = i; cls; args }) in
          instr_node.(i) <- id;
          if ins.Isa.dst <> Isa.no_reg then begin
            regs.(ins.Isa.dst) <- id;
            reg_written.(ins.Isa.dst) <- true
          end
      | Isa.Store ->
          let args = [| reg_term ins.Isa.src1; reg_term ins.Isa.src2 |] in
          let id = arena_push ar (Op { idx = i; cls; args }) in
          instr_node.(i) <- id;
          bind_mem ins.Isa.addr id
      | Isa.Branch ->
          let args = [| reg_term ins.Isa.src1 |] in
          instr_node.(i) <- arena_push ar (Op { idx = i; cls; args })
      | Isa.Accel a ->
          let ord = !n_accels in
          incr n_accels;
          accels_rev := i :: !accels_rev;
          (* The invocation is an uninterpreted function of its explicit
             register operand and the current contents of every declared
             read line: the whole-line base value plus each exact cell. *)
          let args = ref [ reg_term ins.Isa.src1 ] in
          Array.iter
            (fun addr ->
              let l = line_of ~line_bytes addr in
              args := line_base_term l :: !args;
              List.iter
                (fun cell -> args := Hashtbl.find mem cell :: !args)
                (line_cells line_keys mem l))
            a.Isa.reads;
          let args = Array.of_list (List.rev !args) in
          let app =
            arena_push ar (Accel_app { idx = i; ord; unit = a.Isa.unit_id; args })
          in
          instr_node.(i) <- app;
          if ins.Isa.dst <> Isa.no_reg then begin
            regs.(ins.Isa.dst) <- arena_push ar (Accel_out { app; loc = Reg ins.Isa.dst });
            reg_written.(ins.Isa.dst) <- true
          end;
          Array.iter
            (fun addr ->
              let l = line_of ~line_bytes addr in
              List.iter
                (fun cell ->
                  Hashtbl.replace mem cell
                    (arena_push ar (Accel_out { app; loc = Mem cell })))
                (line_cells line_keys mem l);
              Hashtbl.replace line_owner l app)
            a.Isa.writes)
    instrs;
  {
    nodes = Array.sub ar.buf 0 ar.len;
    instr_node;
    regs;
    reg_written;
    mem;
    line_owner;
    accels = Array.of_list (List.rev !accels_rev);
    line_bytes;
  }

(* {2 Concrete reference semantics}

   A deliberately independent implementation of the same semantics over
   concrete integers, used as the differential oracle: evaluating the
   symbolic summary under [mix]-defined initial state must reproduce the
   interpreter's final state exactly. *)

let mix a b =
  let x = (a lxor (b * 0x100000001B3)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 31)

let zero_value = mix 9 9
let init_reg_value r = mix 11 r
let init_mem_value a = mix 12 a
let init_line_value l = mix 13 l

let loc_value = function
  | Reg r -> mix 14 r
  | Mem a -> mix 15 a
  | Line l -> mix 16 l

let op_value cls args = Array.fold_left mix (mix 1 cls) args
(* [unit] is part of the uninterpreted function's identity: the same
   arguments on a different (heterogeneous) unit give a different
   value. *)
let app_value ~unit ord args = Array.fold_left mix (mix (mix 8 ord) unit) args
let out_value app_v loc = mix (mix 10 app_v) (loc_value loc)

type concrete = {
  c_regs : int array;
  c_mem : (int, int) Hashtbl.t;
  c_line_owner : (int, int) Hashtbl.t;
}

let interpret ?(line_bytes = 64) instrs =
  let regs = Array.init Isa.num_arch_regs init_reg_value in
  let mem : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let line_keys : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let line_owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let reg_value r = if r = Isa.no_reg then zero_value else regs.(r) in
  let line_base_value l =
    match Hashtbl.find_opt line_owner l with
    | Some app_v -> out_value app_v (Line l)
    | None -> init_line_value l
  in
  let mem_value addr =
    match Hashtbl.find_opt mem addr with
    | Some v -> v
    | None -> (
        match Hashtbl.find_opt line_owner (line_of ~line_bytes addr) with
        | Some app_v -> out_value app_v (Mem addr)
        | None -> init_mem_value addr)
  in
  let bind_mem addr v =
    if not (Hashtbl.mem mem addr) then begin
      let l = line_of ~line_bytes addr in
      match Hashtbl.find_opt line_keys l with
      | Some cells -> cells := addr :: !cells
      | None -> Hashtbl.add line_keys l (ref [ addr ])
    end;
    Hashtbl.replace mem addr v
  in
  let n_accels = ref 0 in
  Array.iter
    (fun (ins : Isa.instr) ->
      let cls = cls_of ins.Isa.op in
      match ins.Isa.op with
      | Isa.Int_alu | Isa.Int_mult | Isa.Fp_alu | Isa.Fp_mult ->
          let v = op_value cls [| reg_value ins.Isa.src1; reg_value ins.Isa.src2 |] in
          if ins.Isa.dst <> Isa.no_reg then regs.(ins.Isa.dst) <- v
      | Isa.Load ->
          let v = op_value cls [| reg_value ins.Isa.src1; mem_value ins.Isa.addr |] in
          if ins.Isa.dst <> Isa.no_reg then regs.(ins.Isa.dst) <- v
      | Isa.Store ->
          let v = op_value cls [| reg_value ins.Isa.src1; reg_value ins.Isa.src2 |] in
          bind_mem ins.Isa.addr v
      | Isa.Branch -> ()
      | Isa.Accel a ->
          let ord = !n_accels in
          incr n_accels;
          let args = ref [ reg_value ins.Isa.src1 ] in
          Array.iter
            (fun addr ->
              let l = line_of ~line_bytes addr in
              args := line_base_value l :: !args;
              List.iter
                (fun cell -> args := Hashtbl.find mem cell :: !args)
                (line_cells line_keys mem l))
            a.Isa.reads;
          let app_v =
            app_value ~unit:a.Isa.unit_id ord (Array.of_list (List.rev !args))
          in
          if ins.Isa.dst <> Isa.no_reg then
            regs.(ins.Isa.dst) <- out_value app_v (Reg ins.Isa.dst);
          Array.iter
            (fun addr ->
              let l = line_of ~line_bytes addr in
              List.iter
                (fun cell ->
                  Hashtbl.replace mem cell (out_value app_v (Mem cell)))
                (line_cells line_keys mem l);
              Hashtbl.replace line_owner l app_v)
            a.Isa.writes)
    instrs;
  { c_regs = regs; c_mem = mem; c_line_owner = line_owner }

let eval t =
  let values = Array.make (Array.length t.nodes) 0 in
  Array.iteri
    (fun id node ->
      values.(id) <-
        (match node with
        | Zero -> zero_value
        | Init_reg r -> init_reg_value r
        | Init_mem a -> init_mem_value a
        | Init_line l -> init_line_value l
        | Op { cls; args; _ } ->
            op_value cls (Array.map (fun a -> values.(a)) args)
        | Accel_app { ord; unit; args; _ } ->
            app_value ~unit ord (Array.map (fun a -> values.(a)) args)
        | Accel_out { app; loc } -> out_value values.(app) loc))
    t.nodes;
  values

let check_agreement ?(line_bytes = 64) instrs =
  let sym = summarize ~line_bytes instrs in
  let conc = interpret ~line_bytes instrs in
  let values = eval sym in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let mismatch = ref None in
  for r = 0 to Isa.num_arch_regs - 1 do
    if !mismatch = None && values.(sym.regs.(r)) <> conc.c_regs.(r) then
      mismatch := Some (Reg r)
  done;
  if !mismatch = None then
    Hashtbl.iter
      (fun addr id ->
        if !mismatch = None then
          match Hashtbl.find_opt conc.c_mem addr with
          | Some v when v = values.(id) -> ()
          | _ -> mismatch := Some (Mem addr))
      sym.mem;
  if !mismatch = None && Hashtbl.length sym.mem <> Hashtbl.length conc.c_mem
  then mismatch := Some (Mem (-1));
  if !mismatch = None then
    Hashtbl.iter
      (fun l app ->
        if !mismatch = None then
          match Hashtbl.find_opt conc.c_line_owner l with
          | Some v when v = values.(app) -> ()
          | _ -> mismatch := Some (Line l))
      sym.line_owner;
  if !mismatch = None
     && Hashtbl.length sym.line_owner <> Hashtbl.length conc.c_line_owner
  then mismatch := Some (Line (-1));
  match !mismatch with
  | None -> Ok ()
  | Some (Reg r) -> fail "symbolic/concrete disagreement at register r%d" r
  | Some (Mem a) -> fail "symbolic/concrete disagreement at address %#x" a
  | Some (Line l) -> fail "symbolic/concrete disagreement at line %#x" l

let producer t id =
  match t.nodes.(id) with
  | Op { idx; _ } | Accel_app { idx; _ } -> Some idx
  | Accel_out { app; _ } -> (
      match t.nodes.(app) with Accel_app { idx; _ } -> Some idx | _ -> None)
  | Zero | Init_reg _ | Init_mem _ | Init_line _ -> None

let op_short cls =
  let open Trace.Decoded in
  if cls = op_int_alu then "alu"
  else if cls = op_int_mult then "mul"
  else if cls = op_fp_alu then "fadd"
  else if cls = op_fp_mult then "fmul"
  else if cls = op_load then "load"
  else if cls = op_store then "store"
  else if cls = op_branch then "br"
  else "accel"

let rec pp_term_depth t buf depth id =
  let add = Buffer.add_string buf in
  match t.nodes.(id) with
  | Zero -> add "_"
  | Init_reg r -> add (Printf.sprintf "init:r%d" r)
  | Init_mem a -> add (Printf.sprintf "init:[%#x]" a)
  | Init_line l -> add (Printf.sprintf "init:line[%#x]" l)
  | Op { idx; cls; args } ->
      add (Printf.sprintf "%s#%d" (op_short cls) idx);
      pp_args t buf depth args
  | Accel_app { ord; idx; unit; args } ->
      add
        (if unit = 0 then Printf.sprintf "accel%d#%d" ord idx
         else Printf.sprintf "accel%d@u%d#%d" ord unit idx);
      pp_args t buf depth args
  | Accel_out { app; loc } -> (
      (match t.nodes.(app) with
      | Accel_app { ord; idx; unit; _ } ->
          add
            (if unit = 0 then Printf.sprintf "accel%d#%d" ord idx
             else Printf.sprintf "accel%d@u%d#%d" ord unit idx)
      | _ -> add "accel?");
      match loc with
      | Reg r -> add (Printf.sprintf ".r%d" r)
      | Mem a -> add (Printf.sprintf ".[%#x]" a)
      | Line l -> add (Printf.sprintf ".line[%#x]" l))

and pp_args t buf depth args =
  let add = Buffer.add_string buf in
  if depth <= 0 then add "(…)"
  else begin
    add "(";
    Array.iteri
      (fun i a ->
        if i > 0 then add ", ";
        (* Wide argument lists (accelerator read sets) are elided past
           the first few entries. *)
        if i >= 4 && i < Array.length args - 1 then (if i = 4 then add "…")
        else pp_term_depth t buf (depth - 1) a)
      args;
    add ")"
  end

let term_to_string t id =
  let buf = Buffer.create 64 in
  pp_term_depth t buf 3 id;
  Buffer.contents buf
