open Diag.Syntax

let non_empty name xs =
  let* _ = Diag.non_empty ~field:name xs in
  Ok ()

(* Every aggregate checks its own output: a NaN smuggled in through the
   input array surfaces as [Non_finite] instead of poisoning downstream
   geomeans silently. *)
let finite_out name x = Diag.finite ~field:name x

let mean xs =
  let* () = non_empty "Stats.mean" xs in
  finite_out "Stats.mean"
    (Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs))

let geomean xs =
  let* () = non_empty "Stats.geomean" xs in
  let* sum_logs =
    Array.fold_left
      (fun acc x ->
        let* acc = acc in
        let* x = Diag.positive ~field:"Stats.geomean element" x in
        Ok (acc +. log x))
      (Ok 0.0) xs
  in
  finite_out "Stats.geomean"
    (exp (sum_logs /. float_of_int (Array.length xs)))

let variance xs =
  let* () = non_empty "Stats.variance" xs in
  let* m = mean xs in
  finite_out "Stats.variance"
    (Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int (Array.length xs))

let stddev xs =
  let* v = variance xs in
  Ok (sqrt v)

let max xs =
  let* () = non_empty "Stats.max" xs in
  finite_out "Stats.max" (Array.fold_left Stdlib.max xs.(0) xs)

let percentile xs p =
  let* () = non_empty "Stats.percentile" xs in
  let* p = Diag.in_range ~field:"Stats.percentile.p" ~lo:0.0 ~hi:100.0 p in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then finite_out "Stats.percentile" sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    finite_out "Stats.percentile"
      (((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi)))

let percentile_exn xs p = Diag.ok_exn (percentile xs p)

let median xs = percentile xs 50.0
let median_exn xs = Diag.ok_exn (median xs)

let relative_error ~measured ~estimated =
  let* measured = Diag.finite ~field:"Stats.relative_error.measured" measured in
  let* estimated =
    Diag.finite ~field:"Stats.relative_error.estimated" estimated
  in
  if measured = 0.0 then
    Error (Diag.Invalid
             { field = "Stats.relative_error"; message = "measured = 0" })
  else
    (* Finite operands can still overflow the quotient (tiny [measured],
       huge [estimated]); keep the output-finiteness guarantee. *)
    Diag.finite ~field:"Stats.relative_error" ((estimated -. measured) /. measured)

let mape ~measured ~estimated =
  let* () = Diag.same_length ~field:"Stats.mape" measured estimated in
  let* () = non_empty "Stats.mape" measured in
  let* errs =
    Array.fold_left
      (fun acc (m, e) ->
        let* acc = acc in
        let* err = relative_error ~measured:m ~estimated:e in
        Ok (Float.abs err :: acc))
      (Ok [])
      (Array.map2 (fun m e -> (m, e)) measured estimated)
  in
  let* m = mean (Array.of_list errs) in
  finite_out "Stats.mape" (100.0 *. m)
