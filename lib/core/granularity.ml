type marker = { name : string; granularity : float }

(* Estimated positions as in the paper's Fig. 2 annotations: invocation
   granularities spanning heap management (tens of instructions) up to
   whole-video encoding (billions). *)
let reference_markers =
  [
    { name = "heap management"; granularity = 53.0 };
    { name = "hash map"; granularity = 150.0 };
    { name = "string functions"; granularity = 300.0 };
    { name = "GreenDroid functions"; granularity = 500.0 };
    { name = "regular expression"; granularity = 2.0e3 };
    { name = "speech (STTNI)"; granularity = 2.0e4 };
    { name = "Google TPU"; granularity = 1.0e7 };
    { name = "H.264 encode"; granularity = 1.0e9 };
  ]

let series core ~a ~accel ~gs =
  List.map
    (fun mode ->
      let pts =
        Array.map
          (fun g ->
            let s =
              Diag.ok_exn (Params.scenario_of_granularity ~a ~g ~accel ())
            in
            (g, Equations.speedup_exn core s mode))
          gs
      in
      (mode, pts))
    Mode.all

let crossover_granularity core ~a ~accel mode =
  let gs = Tca_util.Sweep.logspace_exn 1.0 1.0e9 400 in
  let speedup_at g =
    let s = Diag.ok_exn (Params.scenario_of_granularity ~a ~g ~accel ()) in
    Equations.speedup_exn core s mode
  in
  let n = Array.length gs in
  let rec find i =
    if i >= n then None
    else if speedup_at gs.(i) >= 1.0 then if i = 0 then None else Some gs.(i)
    else find (i + 1)
  in
  find 0
