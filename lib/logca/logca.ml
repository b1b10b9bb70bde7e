type t = {
  latency : float;
  overhead : float;
  compute_index : float;
  acceleration : float;
}

let make ~latency ~overhead ~compute_index ~acceleration () =
  if latency < 0.0 then invalid_arg "Logca.make: negative latency";
  if overhead < 0.0 then invalid_arg "Logca.make: negative overhead";
  if compute_index <= 0.0 then invalid_arg "Logca.make: compute_index must be positive";
  if acceleration <= 1.0 then invalid_arg "Logca.make: acceleration must exceed 1";
  { latency; overhead; compute_index; acceleration }

let check_granularity g =
  if g <= 0.0 then invalid_arg "Logca: granularity must be positive"

let time_unaccelerated t g =
  check_granularity g;
  t.compute_index *. g

let time_accelerated t g =
  check_granularity g;
  t.overhead
  +. (t.latency *. g)
  +. (t.compute_index *. g /. t.acceleration)

let speedup t g = time_unaccelerated t g /. time_accelerated t g

(* Find the smallest g in [1, 1e12] with f g >= target, assuming f is
   monotonically increasing over the searched range. *)
let bisect_threshold f target =
  let lo = 1.0 and hi = 1.0e12 in
  if f hi < target then None
  else if f lo >= target then Some lo
  else
    let rec loop lo hi iters =
      if iters = 0 || (hi -. lo) /. hi < 1.0e-9 then Some hi
      else
        let mid = sqrt (lo *. hi) in
        if f mid >= target then loop lo mid (iters - 1)
        else loop mid hi (iters - 1)
    in
    loop lo hi 200

let break_even t = bisect_threshold (speedup t) 1.0

(* c g / (l g + c g / A) as g -> inf *)
let asymptotic_speedup t =
  t.compute_index /. (t.latency +. (t.compute_index /. t.acceleration))

let g_half t =
  let target = asymptotic_speedup t /. 2.0 in
  if target <= 0.0 then None else bisect_threshold (speedup t) target
