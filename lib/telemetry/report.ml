open Tca_util

type interval_row = {
  ts : float;
  committed : float;
  dispatched : float;
  issued : float;
  stalled : float;
  rob_avg : float;
}

type t = {
  events : int;
  cycles : float;
  runs : int;
  run_cycles : float;
  stall_totals : (string * float) list;
  pipeline_totals : (string * float) list;
  accel_spans : int;
  accel_busy : float;
  occupancy : float array;
  intervals : interval_row list;
  wall_spans : (string * int * float) list;
}

let buckets = 48

(* One parsed event; only the fields the summary needs. *)
type ev = {
  e_name : string;
  e_ph : string;
  e_ts : float;
  e_dur : float;
  e_pid : int;
  e_args : (string * float) list;
}

let ev_of_json j =
  match j with
  | Json.Obj _ ->
      let str k = Option.bind (Json.member k j) Json.to_string_opt in
      let num k =
        Option.value ~default:0.0
          (Option.bind (Json.member k j) Json.to_float_opt)
      in
      let args =
        match Json.member "args" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, v) ->
                Option.map (fun f -> (k, f)) (Json.to_float_opt v))
              fields
        | _ -> []
      in
      Option.map
        (fun name ->
          {
            e_name = name;
            e_ph = Option.value ~default:"" (str "ph");
            e_ts = num "ts";
            e_dur = num "dur";
            e_pid =
              Option.value ~default:0
                (Option.bind (Json.member "pid" j) Json.to_int_opt);
            e_args = args;
          })
        (str "name")
  | _ -> None

let add_series table (k, v) =
  let prev = try List.assoc k !table with Not_found -> 0.0 in
  table := (k, prev +. v) :: List.remove_assoc k !table

let of_events evs =
  let stall_totals = ref [] in
  let pipeline_totals = ref [] in
  let intervals = ref [] in
  (* Interval rows join three counter streams (sim.stalls, sim.pipeline,
     sim.rob) emitted at the same ts; index them by ts. *)
  let row_tbl : (float, interval_row ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let row ts =
    match Hashtbl.find_opt row_tbl ts with
    | Some r -> r
    | None ->
        let r =
          ref
            {
              ts;
              committed = 0.0;
              dispatched = 0.0;
              issued = 0.0;
              stalled = 0.0;
              rob_avg = 0.0;
            }
        in
        Hashtbl.replace row_tbl ts r;
        order := ts :: !order;
        r
  in
  let cycles = ref 0.0 in
  let runs = ref 0 in
  let run_cycles = ref 0.0 in
  let accel_spans = ref 0 in
  let accel_busy = ref 0.0 in
  let accel_list = ref [] in
  let wall_tbl : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.e_pid = Sink.track_wall then begin
        if e.e_ph = "X" then
          match Hashtbl.find_opt wall_tbl e.e_name with
          | Some r ->
              let n, s = !r in
              r := (n + 1, s +. (e.e_dur /. 1e6))
          | None -> Hashtbl.replace wall_tbl e.e_name (ref (1, e.e_dur /. 1e6))
      end
      else begin
        cycles := Float.max !cycles (e.e_ts +. e.e_dur);
        match (e.e_name, e.e_ph) with
        | "sim.stalls", "C" ->
            List.iter (add_series stall_totals) e.e_args;
            let r = row e.e_ts in
            let s = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 e.e_args in
            r := { !r with stalled = !r.stalled +. s }
        | "sim.pipeline", "C" ->
            List.iter (add_series pipeline_totals) e.e_args;
            let get k = try List.assoc k e.e_args with Not_found -> 0.0 in
            let r = row e.e_ts in
            r :=
              {
                !r with
                committed = !r.committed +. get "committed";
                dispatched = !r.dispatched +. get "dispatched";
                issued = !r.issued +. get "issued";
              }
        | "sim.rob", "C" ->
            let r = row e.e_ts in
            r :=
              {
                !r with
                rob_avg = (try List.assoc "avg" e.e_args with Not_found -> 0.0);
              }
        | "sim.run", "X" ->
            incr runs;
            run_cycles := !run_cycles +. e.e_dur
        | "accel.invoke", "X" ->
            incr accel_spans;
            accel_busy := !accel_busy +. e.e_dur;
            accel_list := (e.e_ts, e.e_dur) :: !accel_list
        | _ -> ()
      end)
    evs;
  (* Accelerator-busy fraction per fixed-width time bucket. *)
  let occupancy = Array.make buckets 0.0 in
  if !cycles > 0.0 then begin
    let width = !cycles /. float_of_int buckets in
    List.iter
      (fun (ts, dur) ->
        let lo = ts and hi = ts +. dur in
        let b0 = max 0 (int_of_float (lo /. width)) in
        let b1 = min (buckets - 1) (int_of_float (hi /. width)) in
        for b = b0 to b1 do
          let bl = float_of_int b *. width and bh = float_of_int (b + 1) *. width in
          let overlap = Float.max 0.0 (Float.min hi bh -. Float.max lo bl) in
          occupancy.(b) <- occupancy.(b) +. overlap
        done)
      !accel_list;
    Array.iteri
      (fun i v -> occupancy.(i) <- Float.min 1.0 (v /. width))
      occupancy
  end;
  intervals :=
    List.rev_map (fun ts -> !(row ts)) !order;
  {
    events = List.length evs;
    cycles = !cycles;
    runs = !runs;
    run_cycles = !run_cycles;
    stall_totals =
      List.sort (fun (_, a) (_, b) -> compare b a) !stall_totals;
    pipeline_totals =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !pipeline_totals;
    accel_spans = !accel_spans;
    accel_busy = !accel_busy;
    occupancy;
    intervals = !intervals;
    wall_spans =
      Hashtbl.fold (fun name r acc -> (name, fst !r, snd !r) :: acc) wall_tbl []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a);
  }

let of_json j =
  let events =
    match j with
    | Json.Obj _ -> (
        match Json.member "traceEvents" j with
        | Some (Json.List l) -> Ok l
        | _ ->
            Error
              (Diag.Invalid
                 {
                   field = "Report.of_json";
                   message = "object has no \"traceEvents\" array";
                 }))
    | Json.List l -> Ok l
    | _ ->
        Error
          (Diag.Invalid
             {
               field = "Report.of_json";
               message = "expected a trace object or an event array";
             })
  in
  (* 'M' lane-name metadata is presentation synthesized at export time,
     not recorded data — it never enters the report. *)
  Result.map
    (fun l ->
      of_events
        (List.filter
           (fun e -> e.e_ph <> "M")
           (List.filter_map ev_of_json l)))
    events

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error message ->
      Error (Diag.Invalid { field = "Report.of_file"; message })
  | contents -> (
      match Json.parse contents with
      | Error d -> Error d
      | Ok j -> of_json j)

let shade f =
  if f <= 0.001 then ' '
  else if f < 0.25 then '.'
  else if f < 0.5 then ':'
  else if f < 0.75 then '|'
  else '#'

let pp fmt t =
  Format.fprintf fmt "trace: %d events over %.0f cycles" t.events t.cycles;
  if t.runs > 0 then
    Format.fprintf fmt " (%d sim run%s, %.0f simulated cycles)" t.runs
      (if t.runs = 1 then "" else "s")
      t.run_cycles;
  Format.fprintf fmt "@.";
  (* Shares are of the summed run lengths: every run of a sweep starts at
     cycle 0, so the track extent is only the longest one. *)
  let simulated = if t.runs > 0 then t.run_cycles else t.cycles in
  let share v = 100.0 *. v /. Float.max 1.0 simulated in
  (* Stall sources. *)
  let stall_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t.stall_totals in
  if stall_sum > 0.0 then begin
    Format.fprintf fmt
      "@.top stall sources (%.0f stalled cycles, %.1f%% of simulated cycles):@."
      stall_sum (share stall_sum);
    List.iter
      (fun (name, v) ->
        if v > 0.0 then
          Format.fprintf fmt "  %-10s %10.0f  %5.1f%%@." name v
            (100.0 *. v /. stall_sum))
      t.stall_totals
  end
  else Format.fprintf fmt "@.no stall counters in trace@.";
  (* Pipeline totals. *)
  if t.pipeline_totals <> [] then begin
    Format.fprintf fmt "@.pipeline totals:";
    List.iter
      (fun (name, v) -> Format.fprintf fmt " %s=%.0f" name v)
      t.pipeline_totals;
    Format.fprintf fmt "@."
  end;
  (* Accelerator occupancy. *)
  Format.fprintf fmt
    "@.accelerator: %d invocations, %.0f busy cycles (%.1f%% occupancy)@."
    t.accel_spans t.accel_busy (share t.accel_busy);
  if t.accel_spans > 0 then begin
    Format.fprintf fmt "  timeline [";
    Array.iter (fun f -> Format.pp_print_char fmt (shade f)) t.occupancy;
    Format.fprintf fmt "]@."
  end;
  (* Interval table, elided in the middle when long. *)
  let n = List.length t.intervals in
  if n > 0 then begin
    Format.fprintf fmt "@.intervals (%d):@." n;
    Format.fprintf fmt "  %10s %10s %10s %10s %10s %8s@." "cycle" "committed"
      "dispatched" "issued" "stalled" "rob-avg";
    let show r =
      Format.fprintf fmt "  %10.0f %10.0f %10.0f %10.0f %10.0f %8.1f@." r.ts
        r.committed r.dispatched r.issued r.stalled r.rob_avg
    in
    if n <= 24 then List.iter show t.intervals
    else begin
      List.iteri (fun i r -> if i < 10 then show r) t.intervals;
      Format.fprintf fmt "  %10s (%d rows elided)@." "..." (n - 20);
      List.iteri (fun i r -> if i >= n - 10 then show r) t.intervals
    end
  end;
  (* Wall-clock spans. *)
  if t.wall_spans <> [] then begin
    Format.fprintf fmt "@.wall-clock spans:@.";
    List.iter
      (fun (name, calls, secs) ->
        Format.fprintf fmt "  %-28s %6d calls %12.3f s total %12.3f ms/call@."
          name calls secs
          (1e3 *. secs /. float_of_int (max 1 calls)))
      t.wall_spans
  end
