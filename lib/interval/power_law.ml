type fit = { alpha : float; beta : float }

let calibrate ~ipc ~window ~beta =
  if ipc <= 0.0 then invalid_arg "Power_law.calibrate: ipc must be positive";
  if window <= 0 then invalid_arg "Power_law.calibrate: window must be positive";
  if beta <= 0.0 then invalid_arg "Power_law.calibrate: beta must be positive";
  let w = float_of_int window in
  (* l(W) = W / ipc at the calibration point, and alpha = W / l^beta. *)
  let l = w /. ipc in
  { alpha = w /. (l ** beta); beta }

let critical_path fit w =
  if w <= 0.0 then 0.0 else (w /. fit.alpha) ** (1.0 /. fit.beta)

(* w / l(w) = alpha^(1/beta) * w^(1 - 1/beta); solve for w. *)
let window_for_ipc fit ipc =
  if ipc <= 0.0 then invalid_arg "Power_law.window_for_ipc: ipc must be positive";
  if fit.beta = 1.0 then invalid_arg "Power_law.window_for_ipc: beta = 1 gives constant IPC";
  let exponent = 1.0 -. (1.0 /. fit.beta) in
  (ipc /. (fit.alpha ** (1.0 /. fit.beta))) ** (1.0 /. exponent)
