open Tca_model

type row = {
  g : float;
  logca : float;
  tca : (Mode.t * float) list;
}

let core = Presets.arm_a72
let coverage = 0.3
let accel_factor = 3.0

(* LogCA granularity here is instructions; the host computes them at
   1/IPC cycles each (compute_index), the accelerator at A x IPC. The
   invocation overhead matches the TCA model's commit stall; interface
   latency per instruction is small but non-zero (operand/result movement
   through the shared register file / L1). *)
let logca_params =
  Tca_logca.Logca.make
    ~latency:0.01
    ~overhead:core.Params.commit_stall
    ~compute_index:(1.0 /. core.Params.ipc)
    ~acceleration:accel_factor ()

let run ?(points = 17) () =
  let gs = Tca_util.Sweep.logspace_exn 10.0 1.0e9 points in
  let series =
    Granularity.series core ~a:coverage ~accel:(Params.Factor accel_factor) ~gs
  in
  Array.to_list
    (Array.mapi
       (fun i g ->
         {
           g;
           (* LogCA predicts kernel speedup; scale to whole-program via
              Amdahl with the same 30% coverage so the two are
              comparable. *)
           logca =
             (let k = Tca_logca.Logca.speedup logca_params g in
              1.0 /. (1.0 -. coverage +. (coverage /. k)));
           tca = List.map (fun (mode, pts) -> (mode, snd pts.(i))) series;
         })
       gs)

let artifact rows =
  let module A = Tca_engine.Artifact in
  A.make ~job:"logca"
    ~title:
      "X1: LogCA (loosely-coupled model, Amdahl-scaled to 30% coverage) vs \
       the TCA model"
    [
      A.Table
        (A.table ~name:"comparison"
           ~headers:
             ([ "granularity"; "LogCA" ] @ List.map Mode.to_string Mode.all)
           (List.map
              (fun r ->
                [ A.sci r.g; A.flt r.logca ]
                @ List.map (fun m -> A.flt (List.assoc m r.tca)) Mode.all)
              rows));
      A.Note
        (match Tca_logca.Logca.break_even logca_params with
        | Some g1 -> Printf.sprintf "LogCA break-even granularity g1 = %.1f" g1
        | None -> "LogCA never breaks even in range");
      A.Note
        (Printf.sprintf "LogCA asymptotic kernel speedup = %.2f"
           (Tca_logca.Logca.asymptotic_speedup logca_params));
    ]
