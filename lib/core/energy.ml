type t = { static_power : float }

(* Accelerator dynamic energy per accelerated instruction, relative to
   the core's. *)
let accel_energy_ratio = 0.2

let make ?(static_power = 0.5) () =
  if static_power < 0.0 then invalid_arg "Energy.make: negative static power";
  { static_power }

type verdict = {
  mode : Mode.t;
  speedup : float;
  energy : float;
  relative_energy : float;
  edp : float;
}

(* Per-interval quantities: 1/v instructions, of which a/v are
   acceleratable. *)

let interval_instrs (s : Params.scenario) = 1.0 /. s.Params.v

let baseline_energy t (core : Params.core) (s : Params.scenario) =
  if s.Params.v <= 0.0 then invalid_arg "Energy.baseline_energy: v = 0";
  let instrs = interval_instrs s in
  let cycles = instrs /. core.Params.ipc in
  instrs +. (t.static_power *. cycles)

let mode_energy t (core : Params.core) (s : Params.scenario) mode =
  let instrs = interval_instrs s in
  let accl_instrs = s.Params.a *. instrs in
  let dynamic =
    instrs -. accl_instrs (* core executes the rest at unit energy *)
    +. (accel_energy_ratio *. accl_instrs)
  in
  let cycles = Diag.ok_exn (Equations.mode_time core s mode) in
  dynamic +. (t.static_power *. cycles)

let evaluate t core s =
  let base_e = baseline_energy t core s in
  let base_t =
    (Diag.ok_exn (Equations.interval_times core s)).Equations.t_baseline
  in
  List.map
    (fun mode ->
      let speedup = Equations.speedup_exn core s mode in
      let energy = mode_energy t core s mode in
      let time = Diag.ok_exn (Equations.mode_time core s mode) in
      {
        mode;
        speedup;
        energy;
        relative_energy = energy /. base_e;
        edp = energy *. time /. (base_e *. base_t);
      })
    Mode.all

(* Energy equals baseline energy when
   dynamic_savings = static_power * (t_mode - t_baseline), i.e. at
   t_mode = t_baseline + savings/static_power; the break-even speedup is
   t_baseline / that. *)
let energy_break_even_speedup t core s =
  if s.Params.v <= 0.0 then invalid_arg "Energy.energy_break_even_speedup: v = 0";
  let instrs = interval_instrs s in
  let savings = (1.0 -. accel_energy_ratio) *. s.Params.a *. instrs in
  let base_t =
    (Diag.ok_exn (Equations.interval_times core s)).Equations.t_baseline
  in
  if t.static_power = 0.0 then 0.0
  else base_t /. (base_t +. (savings /. t.static_power))
