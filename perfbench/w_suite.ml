(* suite-quick: the end-to-end [tca run --quick] path. Each op runs one of
   the 27 registry jobs through [Scheduler.run ~quick:true] with no cache,
   on [min nproc recommended_domain_count] domains, and is timed by the
   outcome's [seconds], which leaves out the pool's spawn and shutdown;
   its artifact must carry the pinned fingerprint.
   After the timed passes, one [Scheduler.run] over all jobs through a
   fresh in-memory [Cache] holding the last pass's artifacts must hit on
   every job. Work unit: jobs.

   Jobs go through the scheduler one at a time because in one
   [Scheduler.run] over all jobs an outcome's [seconds] is not the job's
   own time: a domain waiting on its job's [par] fan-out runs other queued
   jobs inside that wait, so most jobs report nearly the whole pass. *)

open Tca_engine

let jobs () = Registry.all (Tca_experiments.Jobs.registry ())
let names = List.map (fun (j : Job.t) -> j.Job.name) (jobs ())

type env = {
  jobs : Job.t list;
  last : (string, Artifact.t) Hashtbl.t;  (** latest artifact per job *)
  traced : (string, Scheduler.outcome) Hashtbl.t;  (** traced pass *)
  mutable warm_ratio : float;
  mutable warm_s : float;  (** raw *)
}

(* Set-up builds the job list the passes run; it is tiny, so a sample
   repeats it. *)
let setup () =
  {
    jobs = jobs ();
    last = Hashtbl.create 32;
    traced = Hashtbl.create 32;
    warm_ratio = nan;
    warm_s = nan;
  }

(* Scheduler phase spans and per-task sinks of the traced pass, for
   [Profiler.of_sink]. *)
let psink = Tca_telemetry.Sink.create ()
let traced_from = ref nan

let op env ~domains (j : Job.t) =
  let run () =
    let tracing = Layers.tracing () in
    if tracing && Float.is_nan !traced_from then
      traced_from := Tca_telemetry.Timing.now_us ();
    let outcomes =
      Layers.time "engine.run" (fun () ->
          Scheduler.run ~quick:true ~jobs:domains ~collect_telemetry:tracing
            ?host_telemetry:(if tracing then Some psink else None)
            [ j ])
    in
    match outcomes with
    | [ o ] -> (
        if tracing then begin
          Hashtbl.replace env.traced j.Job.name o;
          Scheduler.join_telemetry ~into:psink outcomes
        end;
        match o.Scheduler.status with
        | Scheduler.Done a ->
            Hashtbl.replace env.last j.Job.name a;
            Ok
              {
                Runner.digest = Artifact.fingerprint a;
                work = 1.;
                own_s = Some o.Scheduler.seconds;
              }
        | Scheduler.Failed f -> Error (Tca_util.Diag.to_string f.Scheduler.diag)
        | Scheduler.Skipped -> Error "skipped")
    | _ -> Error "expected one outcome"
  in
  { Runner.label = j.Job.name; counted = true; run }

(* The warm pass: all jobs in one [Scheduler.run] through a fresh cache
   holding the latest artifacts; every job must be a hit. *)
let warm_check ~domains env =
  let cache = Cache.create () in
  List.iter
    (fun (j : Job.t) ->
      Option.iter
        (Cache.store cache (Cache.key cache j ~quick:true))
        (Hashtbl.find_opt env.last j.Job.name))
    env.jobs;
  let t0 = Host.now () in
  let outcomes =
    Layers.time "engine.warm" (fun () ->
        Scheduler.run ~cache ~quick:true ~jobs:domains env.jobs)
  in
  env.warm_s <- Host.now () -. t0;
  let hits = List.length (List.filter (fun o -> o.Scheduler.cached) outcomes) in
  env.warm_ratio <- float_of_int hits /. float_of_int (List.length env.jobs);
  [ ("warm_pass_all_hits", hits = List.length env.jobs) ]

let extras ~domains env =
  let f = Layers.factor () in
  let outcomes = List.filter_map (fun n -> Hashtbl.find_opt env.traced n) names in
  let secs = List.map (fun o -> o.Scheduler.seconds) outcomes in
  let wall = f *. (Layers.find "engine.run").Layers.busy_s in
  Tca_telemetry.Timing.record_span ~ts:!traced_from (Some psink)
    Tca_telemetry.Profiler.total_span_name
    ~seconds:((Tca_telemetry.Timing.now_us () -. !traced_from) *. 1e-6);
  let profile = Tca_telemetry.Profiler.of_sink psink in
  Tca_telemetry.Sink.join ~into:Layers.sink psink;
  (* busy: summed lane time of the scheduler tasks and their fan-out *)
  let busy = f *. profile.Tca_telemetry.Profiler.cpu_s in
  let d = float_of_int domains in
  let count p = float_of_int (List.length (List.filter p outcomes)) in
  [
    ("engine.wall_s", wall);
    ("engine.job_busy_s", busy);
    ("engine.idle_s", (d *. wall) -. busy);
    ("engine.parallel_efficiency", busy /. (d *. wall));
    ("engine.critical_job_s", f *. List.fold_left Float.max 0. secs);
    ( "engine.failed",
      count (fun o ->
          match o.Scheduler.status with Scheduler.Done _ -> false | _ -> true) );
    ( "engine.retried",
      float_of_int
        (List.fold_left (fun a o -> a + max 0 (o.Scheduler.attempts - 1)) 0 outcomes) );
    ("cache.warm_hit_ratio", env.warm_ratio);
    ("cache.warm_s", f *. env.warm_s);
  ]
  @ List.map
      (fun o -> ("job." ^ o.Scheduler.job.Job.name ^ ".s", f *. o.Scheduler.seconds))
      outcomes
  @ List.map
      (fun (c, s) -> ("profile." ^ c ^ "_s", f *. s))
      profile.Tca_telemetry.Profiler.components

let spec ~domains ~model_error =
  {
    Runner.setup;
    setup_reps = 200;
    ops = (fun env -> List.map (op env ~domains) env.jobs);
    pins = Some Pins.suite_quick;
    post = warm_check ~domains;
    model_error = (fun _ -> model_error ());
    extras = extras ~domains;
  }
