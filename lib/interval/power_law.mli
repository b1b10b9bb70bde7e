(** Power-law relation between an out-of-order instruction window and the
    critical-path length of the instructions it holds, after Eyerman,
    Eeckhout, Karkhanis and Smith, "A mechanistic performance model for
    superscalar out-of-order processors" (TOCS 2009).

    The fit is [W = alpha * l(W)^beta]: a window of [W] instructions has an
    average dependence critical path of [l(W) = (W / alpha)^(1/beta)]
    cycles. For SPEC-like workloads [beta ~ 2] (the square-root law). The
    steady-state IPC of a core whose window keeps refilling is
    [W / l(W)], which is how we calibrate [alpha] from a measured program
    IPC without needing per-program dependence profiles. *)

type fit = { alpha : float; beta : float }

val calibrate : ipc:float -> window:int -> beta:float -> fit
(** [calibrate ~ipc ~window ~beta] chooses [alpha] such that a full window
    of [window] instructions drains at exactly the measured [ipc]
    (i.e. [window / l(window) = ipc]). Raises [Invalid_argument] when
    [ipc <= 0], [window <= 0] or [beta <= 0]. *)

val critical_path : fit -> float -> float
(** [critical_path fit w] is [l(w) = (w / alpha)^(1/beta)] cycles, the
    expected time to drain a window holding [w] instructions. [w <= 0]
    yields [0]. *)

val window_for_ipc : fit -> float -> float
(** The window size [w] whose sustainable issue rate [w / l(w)] is the
    target IPC. Useful for limit studies. Raises [Invalid_argument] when
    [ipc <= 0] or [beta = 1] (constant IPC). *)
