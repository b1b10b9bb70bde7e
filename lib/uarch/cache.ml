type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  hit_latency : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config ?(line_bytes = 64) ?(hit_latency = 2) ~size_bytes ~assoc () =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.config: line_bytes not a power of two";
  if assoc <= 0 then invalid_arg "Cache.config: assoc must be positive";
  if hit_latency < 1 then invalid_arg "Cache.config: hit_latency below 1";
  if size_bytes <= 0 || size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.config: size not divisible by line_bytes * assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 sets) then invalid_arg "Cache.config: set count not a power of two";
  { size_bytes; line_bytes; assoc; hit_latency }

type t = {
  cfg : config;
  tags : int array;  (** [set * assoc + way]; -1 = invalid *)
  stamps : int array;  (** LRU age stamps, larger = more recent *)
  set_mask : int;
  line_shift : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  {
    cfg;
    tags = Array.make (sets * cfg.assoc) (-1);
    stamps = Array.make (sets * cfg.assoc) 0;
    set_mask = sets - 1;
    line_shift = log2 cfg.line_bytes;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let locate t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  (line, set * t.cfg.assoc)

let find_way t base line =
  let rec go w =
    if w = t.cfg.assoc then -1
    else if t.tags.(base + w) = line then base + w
    else go (w + 1)
  in
  go 0

let access t addr =
  let line, base = locate t addr in
  t.clock <- t.clock + 1;
  let idx = find_way t base line in
  if idx >= 0 then begin
    t.stamps.(idx) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict the LRU way (or fill an invalid one). *)
    let victim = ref base in
    for w = 1 to t.cfg.assoc - 1 do
      if t.stamps.(base + w) < t.stamps.(!victim) then victim := base + w
    done;
    let invalid = find_way t base (-1) in
    let slot = if invalid >= 0 then invalid else !victim in
    t.tags.(slot) <- line;
    t.stamps.(slot) <- t.clock;
    false
  end

let hits t = t.hits
let misses t = t.misses
