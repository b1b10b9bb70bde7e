type kind =
  | Perfect
  | Bimodal of int
  | Gshare of int
  | Tournament of int

type table = { counters : Bytes.t; mask : int }

type gshare_state = { tbl : table; mutable history : int }

type tournament_state = {
  bimodal : table;
  gshare : gshare_state;
  chooser : table;  (** >= 2: trust gshare *)
}

type t = P | BM of table | GS of gshare_state | TN of tournament_state

let make_table bits =
  if bits < 1 || bits > 24 then invalid_arg "Bpred.create: bits out of range";
  let n = 1 lsl bits in
  (* Initialise to weakly taken (2). *)
  { counters = Bytes.make n '\002'; mask = n - 1 }

let make_gshare bits = { tbl = make_table bits; history = 0 }

let create = function
  | Perfect -> P
  | Bimodal bits -> BM (make_table bits)
  | Gshare bits -> GS (make_gshare bits)
  | Tournament bits ->
      TN
        {
          bimodal = make_table bits;
          gshare = make_gshare bits;
          chooser = make_table bits;
        }

let counter tbl idx = Char.code (Bytes.get tbl.counters (idx land tbl.mask))

let set_counter tbl idx v =
  Bytes.set tbl.counters (idx land tbl.mask) (Char.chr v)

let index_of_pc pc = pc lsr 2

let bimodal_predict tbl pc = counter tbl (index_of_pc pc) >= 2
let gshare_predict g pc = counter g.tbl (index_of_pc pc lxor g.history) >= 2

let predict t ~pc =
  match t with
  | P -> true
  | BM tbl -> bimodal_predict tbl pc
  | GS g -> gshare_predict g pc
  | TN s ->
      if counter s.chooser (index_of_pc pc) >= 2 then gshare_predict s.gshare pc
      else bimodal_predict s.bimodal pc

let train tbl idx taken =
  let c = counter tbl idx in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  set_counter tbl idx c'

let gshare_update g pc taken =
  train g.tbl (index_of_pc pc lxor g.history) taken;
  g.history <- ((g.history lsl 1) lor Bool.to_int taken) land g.tbl.mask

let update t ~pc ~taken =
  match t with
  | P -> ()
  | BM tbl -> train tbl (index_of_pc pc) taken
  | GS g -> gshare_update g pc taken
  | TN s ->
      let bm_correct = bimodal_predict s.bimodal pc = taken in
      let gs_correct = gshare_predict s.gshare pc = taken in
      (* Chooser moves toward whichever component was right when they
         disagree. *)
      if bm_correct <> gs_correct then
        train s.chooser (index_of_pc pc) gs_correct;
      train s.bimodal (index_of_pc pc) taken;
      gshare_update s.gshare pc taken

let is_perfect = function P -> true | BM _ | GS _ | TN _ -> false
