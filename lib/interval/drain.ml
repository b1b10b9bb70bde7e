type spec = Auto | Fixed of float | Refill_aware

let time ~fit ~window =
  let w = float_of_int window in
  let full_window = Power_law.critical_path fit w in
  fun spec ~interval_instrs ~non_accl_time ->
    let raw =
      match spec with
      | Fixed t ->
          if t < 0.0 then invalid_arg "Drain.time: negative fixed drain";
          t
      | Auto ->
          (* The window holds min(window, interval) instructions. *)
          if interval_instrs >= w then full_window
          else Power_law.critical_path fit interval_instrs
      | Refill_aware -> 0.0
    in
    Float.max 0.0 (Float.min raw non_accl_time)
