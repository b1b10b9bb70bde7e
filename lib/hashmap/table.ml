(* Slot states: we keep keys/values in int arrays plus a state byte per
   bucket (0 empty, 1 occupied, 2 tombstone). *)

type t = {
  base : int;
  mask : int;
  keys : int array;
  values : int array;
  state : Bytes.t;
  mutable len : int;
}

let bucket_bytes = 16

let create ?(base = 0x2000_0000) ~capacity_pow2 () =
  if capacity_pow2 < 4 || capacity_pow2 > 24 then
    invalid_arg "Table.create: capacity_pow2 out of [4, 24]";
  let n = 1 lsl capacity_pow2 in
  {
    base;
    mask = n - 1;
    keys = Array.make n 0;
    values = Array.make n 0;
    state = Bytes.make n '\000';
    len = 0;
  }

let capacity t = t.mask + 1
let length t = t.len

type probe_result = {
  found : bool;
  probes : int;
  bucket_addrs : int list;
  value : int option;
}

let hash key =
  (* splitmix-style scramble, as a hardware hash unit would compute. *)
  let h = key * 0x9E3779B9 in
  let h = h lxor (h lsr 16) in
  h land max_int

let check_key key = if key < 0 then invalid_arg "Table: negative key"

let bucket_addr t idx = t.base + (bucket_bytes * idx)

let slot_state t idx = Bytes.get t.state idx |> Char.code

(* Walk the probe sequence until [stop] says where to end. Returns the
   final index, the probe count and the visited bucket addresses. *)
let probe_seq t key stop =
  let start = hash key land t.mask in
  let rec go idx probes addrs =
    let addrs = bucket_addr t idx :: addrs in
    if stop idx then (idx, probes, List.rev addrs)
    else if probes > t.mask then
      failwith "Table: probe sequence exhausted (table full?)"
    else go ((idx + 1) land t.mask) (probes + 1) addrs
  in
  go start 1 []

(* Probe until the key or an empty slot (the key is absent). A tombstone
   keeps its key, so it ends only the probe for that key. *)
let probe_key t key =
  probe_seq t key (fun idx -> slot_state t idx = 0 || t.keys.(idx) = key)

let find t key =
  check_key key;
  let idx, probes, addrs = probe_key t key in
  let found = slot_state t idx = 1 in
  {
    found;
    probes;
    bucket_addrs = addrs;
    value = (if found then Some t.values.(idx) else None);
  }

let insert t key value =
  check_key key;
  if t.len > capacity t * 7 / 8 then failwith "Table.insert: table full";
  let idx, probes, addrs = probe_key t key in
  let existed = slot_state t idx = 1 in
  if not existed then t.len <- t.len + 1;
  Bytes.set t.state idx '\001';
  t.keys.(idx) <- key;
  t.values.(idx) <- value;
  { found = existed; probes; bucket_addrs = addrs; value = Some value }

let remove t key =
  check_key key;
  let idx, probes, addrs = probe_key t key in
  let found = slot_state t idx = 1 in
  if found then begin
    Bytes.set t.state idx '\002';
    t.len <- t.len - 1
  end;
  { found; probes; bucket_addrs = addrs; value = None }

let check_invariants t =
  let occupied = ref 0 in
  let err = ref None in
  for idx = 0 to t.mask do
    if slot_state t idx = 1 then begin
      incr occupied;
      let r = find t t.keys.(idx) in
      if not r.found then
        if !err = None then
          err := Some (Printf.sprintf "stored key %d not findable" t.keys.(idx))
    end
  done;
  if !err = None && !occupied <> t.len then
    err := Some (Printf.sprintf "length %d but %d occupied slots" t.len !occupied);
  match !err with None -> Ok () | Some m -> Error m
