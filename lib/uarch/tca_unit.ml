type config_mode = Sync | Queued | Preprogrammed

type t = {
  id : int;
  config_mode : config_mode;
  config_latency : int;
  config_queue_depth : int;
}

let make ?(config_mode = Sync) ?(config_latency = 0) ?(config_queue_depth = 4)
    id =
  if id < 0 then invalid_arg "Tca_unit.make: negative unit id";
  if config_latency < 0 then
    invalid_arg "Tca_unit.make: negative config latency";
  if config_queue_depth < 1 then
    invalid_arg "Tca_unit.make: config queue depth < 1";
  { id; config_mode; config_latency; config_queue_depth }

let default id = make id

let config_mode_name = function
  | Sync -> "sync"
  | Queued -> "queued"
  | Preprogrammed -> "preprog"

let validate u =
  let invalid message =
    Error
      (Tca_util.Diag.Invalid
         { field = Printf.sprintf "Tca_unit[%d]" u.id; message })
  in
  if u.id < 0 then invalid "negative unit id"
  else if u.config_latency < 0 then invalid "negative config latency"
  else if u.config_queue_depth < 1 then invalid "config queue depth < 1"
  else Ok u

let pp fmt u =
  Format.fprintf fmt "unit %d%s" u.id
    (if u.config_latency = 0 then ""
     else
       Printf.sprintf " config=%s:%d%s"
         (config_mode_name u.config_mode)
         u.config_latency
         (match u.config_mode with
         | Queued -> Printf.sprintf " depth=%d" u.config_queue_depth
         | Sync | Preprogrammed -> ""))

module State = struct
  type unit_t = t

  (* int-only: no polymorphic compare on the simulation path *)
  let max (a : int) b = if a > b then a else b

  type t = {
    units : unit_t array;
    exclusive : bool;
    free_at : int array;  (* cycle the unit's last invocation completes *)
    desc_free_at : int array;
        (* cycle the unit's serial descriptor engine finishes its backlog *)
    programmed : bool array;  (* Preprogrammed one-time cost paid *)
    mutable csr_instr : int;  (* invocation whose CSR writes are in flight *)
    mutable csr_ready_at : int;  (* cycle those writes complete *)
    mutable last_unit : int;  (* unit of the most recent dispatch *)
    invocations : int array;
    busy : int array;
    head_wait : int array;
    serialize : int array;
  }

  let create ~exclusive units =
    let n = Array.length units in
    {
      units;
      exclusive;
      free_at = Array.make n 0;
      desc_free_at = Array.make n 0;
      programmed = Array.make n false;
      csr_instr = -1;
      csr_ready_at = 0;
      last_unit = 0;
      invocations = Array.make n 0;
      busy = Array.make n 0;
      head_wait = Array.make n 0;
      serialize = Array.make n 0;
    }

  type gate = Go | Config_write | Config_queue

  let csr_gate st ~instr ~cycle c =
    if st.csr_instr <> instr then begin
      st.csr_instr <- instr;
      st.csr_ready_at <- cycle + c;
      Config_write
    end
    else if cycle < st.csr_ready_at then Config_write
    else Go

  let gate st u ~instr ~cycle =
    let unit = st.units.(u) in
    let c = unit.config_latency in
    if c = 0 then Go
    else
      match unit.config_mode with
      | Sync -> csr_gate st ~instr ~cycle c
      | Preprogrammed ->
          if st.programmed.(u) then Go else csr_gate st ~instr ~cycle c
      | Queued ->
          if st.desc_free_at.(u) - cycle > (unit.config_queue_depth - 1) * c
          then Config_queue
          else Go

  let gate_open_at st u =
    let unit = st.units.(u) in
    match unit.config_mode with
    | Queued ->
        st.desc_free_at.(u)
        - ((unit.config_queue_depth - 1) * unit.config_latency)
    | Sync | Preprogrammed -> st.csr_ready_at

  let dispatch st u ~cycle =
    st.invocations.(u) <- st.invocations.(u) + 1;
    st.last_unit <- u;
    let unit = st.units.(u) in
    if unit.config_latency = 0 then 0
    else
      match unit.config_mode with
      | Queued ->
          let from = max cycle st.desc_free_at.(u) in
          let ready = from + unit.config_latency in
          st.desc_free_at.(u) <- ready;
          ready
      | Preprogrammed ->
          st.programmed.(u) <- true;
          0
      | Sync -> 0

  let start st u ~cycle ~ready =
    let free = if st.exclusive then st.free_at.(u) else cycle in
    max ready (max cycle free)

  let finish st u ~issued ~complete =
    st.free_at.(u) <- complete;
    st.busy.(u) <- st.busy.(u) + (complete - issued)

  let add_head_waits st u k = st.head_wait.(u) <- st.head_wait.(u) + k
  let wait_for_head st u = add_head_waits st u 1

  let add_serialize_stalls st k =
    st.serialize.(st.last_unit) <- st.serialize.(st.last_unit) + k

  let serialize_stall st = add_serialize_stalls st 1

  let unit_stats st =
    List.init (Array.length st.units) (fun i ->
        {
          Sim_stats.unit_id = i;
          invocations = st.invocations.(i);
          busy_cycles = st.busy.(i);
          wait_for_head_cycles = st.head_wait.(i);
          serialize_stall_cycles = st.serialize.(i);
        })
end
