type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  mem_latency : int;
}

let config ?(mem_latency = 100) ~l1 ~l2 () =
  if mem_latency < 1 then invalid_arg "Mem_hier.config: mem_latency below 1";
  { l1; l2; mem_latency }

type t = { cfg : config; l1 : Cache.t; l2 : Cache.t }

let create cfg = { cfg; l1 = Cache.create cfg.l1; l2 = Cache.create cfg.l2 }

let load_latency t addr =
  let l1_hit = t.cfg.l1.Cache.hit_latency in
  if Cache.access t.l1 addr then l1_hit
  else
    let l2_hit = l1_hit + t.cfg.l2.Cache.hit_latency in
    if Cache.access t.l2 addr then l2_hit else l2_hit + t.cfg.mem_latency

let store t addr =
  let (_ : bool) = Cache.access t.l1 addr in
  let (_ : bool) = Cache.access t.l2 addr in
  ()

type level_stats = { hits : int; misses : int }

let stats_of c = { hits = Cache.hits c; misses = Cache.misses c }
let l1_stats t = stats_of t.l1
let l2_stats t = stats_of t.l2
