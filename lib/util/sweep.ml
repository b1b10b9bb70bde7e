open Diag.Syntax

let linspace lo hi n =
  let* lo = Diag.finite ~field:"Sweep.linspace.lo" lo in
  let* hi = Diag.finite ~field:"Sweep.linspace.hi" hi in
  let* n = Diag.at_least ~field:"Sweep.linspace.n" ~min:2 n in
  (* Finite endpoints can still overflow their span (lo = -1e308,
     hi = 1e308); the points would all be infinite. *)
  let* _ = Diag.finite ~field:"Sweep.linspace.range" (hi -. lo) in
  let step = (hi -. lo) /. float_of_int (n - 1) in
  let arr = Array.init n (fun i -> lo +. (float_of_int i *. step)) in
  (* A span within a few ulp of [max_float] passes the range check yet
     overflows at the far endpoint ([(n-1) *. step] rounds up). *)
  if Array.for_all Float.is_finite arr then Ok arr
  else
    Error (Diag.Non_finite { field = "Sweep.linspace.point"; value = infinity })

let linspace_exn lo hi n = Diag.ok_exn (linspace lo hi n)

let logspace lo hi n =
  let* lo = Diag.positive ~field:"Sweep.logspace.lo" lo in
  let* hi = Diag.positive ~field:"Sweep.logspace.hi" hi in
  let* pts = linspace (log10 lo) (log10 hi) n in
  let arr = Array.map (fun e -> 10.0 ** e) pts in
  (* [10.0 ** log10 max_float]-scale endpoints round up to infinity. *)
  if Array.for_all Float.is_finite arr then Ok arr
  else
    Error (Diag.Non_finite { field = "Sweep.logspace.point"; value = infinity })

let logspace_exn lo hi n = Diag.ok_exn (logspace lo hi n)

let int_range lo hi =
  if hi < lo then [||] else Array.init (hi - lo + 1) (fun i -> lo + i)

let geometric_ints lo hi ratio =
  let* _ = Diag.positive_int ~field:"Sweep.geometric_ints.lo" lo in
  let* ratio =
    match Diag.finite ~field:"Sweep.geometric_ints.ratio" ratio with
    | Error _ as e -> e
    | Ok r when r <= 1.0 ->
        Error
          (Diag.Domain
             { field = "Sweep.geometric_ints.ratio"; lo = 1.0; hi = infinity;
               actual = r })
    | Ok r -> Ok r
  in
  (* Bound both hazards of hostile arguments: [float -> int] conversion
     past [max_int] is unspecified (and used to collapse the step to +1,
     turning the loop into ~1e18 iterations), and a ratio barely above 1
     against a huge [hi] yields astronomically many points. *)
  let max_points = 100_000 in
  let rec build acc count x =
    if x > hi then Ok acc
    else if count >= max_points then
      Error
        (Diag.Invalid
           { field = "Sweep.geometric_ints";
             message =
               Printf.sprintf "more than %d points; raise ratio or shrink range"
                 max_points })
    else
      let acc = x :: acc in
      let fnext = Float.round (float_of_int x *. ratio) in
      if fnext > float_of_int hi then Ok acc
      else
        let n = int_of_float fnext in
        let next = if n <= x then x + 1 else n in
        build acc (count + 1) next
  in
  let* pts = build [] 0 lo in
  let pts = match pts with last :: _ when last < hi -> hi :: pts | _ -> pts in
  Ok (Array.of_list (List.rev pts))
