type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let copy t = { state = t.state }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = { state = mix (next t) }
