let pair_of_trailing trailing =
  if trailing then (Mode.L_T, Mode.NL_T) else (Mode.L_NT, Mode.NL_NT)

let mode_time core s ~trailing ~p_speculate =
  if p_speculate < 0.0 || p_speculate > 1.0 then
    invalid_arg "Partial.mode_time: p_speculate out of [0, 1]";
  let l_mode, nl_mode = pair_of_trailing trailing in
  (p_speculate *. Diag.ok_exn (Equations.mode_time core s l_mode))
  +. ((1.0 -. p_speculate) *. Diag.ok_exn (Equations.mode_time core s nl_mode))

let speedup core s ~trailing ~p_speculate =
  if s.Params.v <= 0.0 then 1.0
  else
    let t = Diag.ok_exn (Equations.interval_times core s) in
    t.Equations.t_baseline /. mode_time core s ~trailing ~p_speculate

let required_confidence core s ~trailing ~target_speedup =
  let n = 1000 in
  let rec search i =
    if i > n then None
    else
      let p = float_of_int i /. float_of_int n in
      if speedup core s ~trailing ~p_speculate:p >= target_speedup then Some p
      else search (i + 1)
  in
  search 0
