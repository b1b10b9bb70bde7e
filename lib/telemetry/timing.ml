(* Wall-clock source: CLOCK_MONOTONIC (via the bechamel clock stubs,
   nanosecond int64), not [Unix.gettimeofday]. The wall clock can be
   stepped — NTP corrections, manual adjustment — and a step between a
   span's start and stop used to surface as a negative duration in the
   trace. The monotonic clock cannot go backwards, so durations are
   non-negative by construction (asserted by a regression test). *)

let t0 = lazy (Monotonic_clock.now ())

let now_us () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) (Lazy.force t0)) /. 1e3

(* Wall spans are recorded on the lane of the domain that measured
   them: one Chrome pid (the wall track) with one tid per domain, so a
   parallel run opens in Perfetto as a per-domain flamegraph and the
   profiler can compute self-time within each lane independently. *)
let domain_tid () = (Domain.self () :> int)

(* Without [ts] the start is back-computed as now - dur, which drifts
   late by however long the caller spent between measuring and
   recording. Callers that know their exact start (the scheduler's
   [task.run]) must pass it: a span whose recorded start is later than
   its first child's breaks the profiler's nesting sweep. *)
let record_span ?(args = []) ?ts telemetry name ~seconds =
  match telemetry with
  | None -> ()
  | Some sink ->
      let dur = Float.max 0.0 (seconds *. 1e6) in
      let ts = match ts with Some t -> t | None -> now_us () -. dur in
      Sink.span sink ~pid:Sink.track_wall ~tid:(domain_tid ()) ~cat:"wall"
        ~args ~ts ~dur name

let with_span ?(args = []) telemetry name f =
  match telemetry with
  | None -> f ()
  | Some sink ->
      let start = now_us () in
      let finish () =
        Sink.span sink ~pid:Sink.track_wall ~tid:(domain_tid ()) ~cat:"wall"
          ~args ~ts:start ~dur:(now_us () -. start) name
      in
      Fun.protect ~finally:finish f

let fan_out ?telemetry ?(par = Tca_util.Parmap.serial) f xs =
  let sinks = Array.map (fun _ -> Option.map Sink.fork telemetry) xs in
  let results =
    par.Tca_util.Parmap.run
      (fun i -> f ~telemetry:sinks.(i) xs.(i))
      (Array.init (Array.length xs) Fun.id)
  in
  (match telemetry with
  | None -> ()
  | Some into ->
      with_span telemetry "telemetry.join" (fun () ->
          Array.iter (Option.iter (fun child -> Sink.join ~into child)) sinks));
  results
