type policy = { deadline_s : float option; fail_fast : bool }

let default_policy = { deadline_s = None; fail_fast = false }

type failure = { diag : Tca_util.Diag.t }

type status =
  | Done of Artifact.t
  | Failed of failure
  | Skipped

type outcome = {
  job : Job.t;
  fingerprint : string;
  status : status;
  cached : bool;
  seconds : float;
  attempts : int;
  telemetry : Tca_telemetry.Sink.t option;
}

let artifact o = match o.status with Done a -> Some a | Failed _ | Skipped -> None

let artifact_exn o =
  match o.status with
  | Done a -> a
  | Failed f -> raise (Tca_util.Diag.Error f.diag)
  | Skipped ->
      raise
        (Tca_util.Diag.Error
           (Tca_util.Diag.Invalid
              {
                field = "Scheduler.artifact_exn";
                message =
                  Printf.sprintf "job %s was skipped (fail-fast)"
                    o.job.Job.name;
              }))

let diag_of_exn (j : Job.t) ~fingerprint e bt =
  match e with
  | Tca_util.Diag.Error d -> d
  | e ->
      Tca_util.Diag.Task_failure
        {
          job = j.Job.name;
          fingerprint;
          exn = Printexc.to_string e;
          backtrace = Printexc.raw_backtrace_to_string bt;
        }

(* Thread the deadline through [par] as well: a body that fans its sweep
   out over chunks gets a cancellation point at every chunk boundary
   without knowing the policy exists. *)
let guarded_par par checkpoint =
  {
    Tca_util.Parmap.run =
      (fun f xs ->
        checkpoint ();
        par.Tca_util.Parmap.run
          (fun x ->
            checkpoint ();
            f x)
          xs);
  }

(* GC pressure of one task body, as [Gc.quick_stat] deltas. [quick_stat]
   does not force a collection, so reading it twice per task is cheap;
   word counts are truncated to int (53 usable bits — no task allocates
   past that). *)
let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("minor_words", int_of_float (b.Gc.minor_words -. a.Gc.minor_words));
    ("promoted_words",
     int_of_float (b.Gc.promoted_words -. a.Gc.promoted_words));
    ("major_words", int_of_float (b.Gc.major_words -. a.Gc.major_words));
    ("minor_collections", b.Gc.minor_collections - a.Gc.minor_collections);
    ("major_collections", b.Gc.major_collections - a.Gc.major_collections);
  ]

(* The per-task supervisor: runs the body once under the policy's
   deadline and converts every escape — typed diag, deadline, arbitrary
   exception — into a [Failed] outcome instead of letting it tear down
   the Domain pool. With telemetry on, the task's fresh sink is closed
   by one [task.run] span (tagged with the job, its queue wait and its
   GC deltas) that the profiler groups under the executing domain's
   lane. *)
let supervise (j : Job.t) ~fingerprint ~policy ~collect_telemetry ~quick
    ~enqueued_us pool_par =
  let module T = Tca_telemetry in
  let wait_us = Float.max 0.0 (T.Timing.now_us () -. enqueued_us) in
  let telemetry = if collect_telemetry then Some (T.Sink.create ()) else None in
  let gc0 =
    match telemetry with None -> None | Some _ -> Some (Gc.quick_stat ())
  in
  let t0 = T.Timing.now_us () in
  let elapsed () = (T.Timing.now_us () -. t0) /. 1e6 in
  let checkpoint =
    match policy.deadline_s with
    | None -> ignore
    | Some d ->
        fun () ->
          if elapsed () > d then
            raise
              (Tca_util.Diag.Error
                 (Tca_util.Diag.Deadline { job = j.Job.name; seconds = d }))
  in
  let par =
    match policy.deadline_s with
    | None -> pool_par
    | Some _ -> guarded_par pool_par checkpoint
  in
  let status =
    match j.Job.body { Job.telemetry; par; quick; checkpoint } with
    | a -> Done a
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Failed { diag = diag_of_exn j ~fingerprint e bt }
  in
  let seconds = elapsed () in
  (* Gated on the sink: the disabled path reads the clock twice and
     nothing else. *)
  (match gc0 with
  | Some g0 ->
      let gc = gc_delta g0 (Gc.quick_stat ()) in
      let open Tca_util in
      let args =
        ("job", Json.String j.Job.name)
        :: ("wait_us", Json.Float wait_us)
        :: List.map (fun (k, v) -> ("gc_" ^ k, Json.Int v)) gc
      in
      T.Timing.record_span ~args ~ts:t0 telemetry "task.run" ~seconds
  | None -> ());
  { job = j; fingerprint; status; cached = false; seconds; attempts = 1;
    telemetry }

let run ?cache ?(policy = default_policy) ?(quick = false)
    ?(collect_telemetry = false) ?host_telemetry ?(jobs = 1) js =
  let module T = Tca_telemetry in
  let host name f = T.Timing.with_span host_telemetry name f in
  let js = Array.of_list js in
  (* Phase 1 (serial): cache lookups. The span is only recorded when a
     cache is configured, so a cacheless profile shows no phantom
     cache time. *)
  let lookup () =
    Array.map
      (fun (j : Job.t) ->
        match cache with
        | None -> (j, None, None)
        | Some c ->
            let k = Cache.key c j ~quick in
            (j, Some k, Cache.find c k))
      js
  in
  let looked_up =
    match cache with None -> lookup () | Some _ -> host "cache.lookup" lookup
  in
  (* Phase 2 (parallel): run the misses, each under its supervisor. A
     failure can only mark the abort flag; it never propagates into the
     pool, so every in-flight job still settles and N-1 artifacts
     survive one poisoned point. Pool spawn/shutdown are timed apart
     from the batch itself: domain startup is scheduler overhead, not
     job time. *)
  let aborted = Atomic.make false in
  let outcomes =
    let pool =
      host "pool.spawn" (fun () -> Pool.create ~workers:(max 0 (jobs - 1)))
    in
    Fun.protect
      ~finally:(fun () -> host "pool.shutdown" (fun () -> Pool.shutdown pool))
      (fun () ->
        host "sched.batch" (fun () ->
            let enqueued_us = T.Timing.now_us () in
            Pool.map pool
              (fun ((j : Job.t), _key, hit) ->
                let fingerprint = Job.fingerprint_digest j ~quick in
                (* A cache hit or a skip: the body never runs. *)
                let unrun status ~cached =
                  { job = j; fingerprint; status; cached; seconds = 0.;
                    attempts = 0; telemetry = None }
                in
                match hit with
                | Some a -> unrun (Done a) ~cached:true
                | None when policy.fail_fast && Atomic.get aborted ->
                    unrun Skipped ~cached:false
                | None ->
                    let o =
                      supervise j ~fingerprint ~policy ~collect_telemetry
                        ~quick ~enqueued_us (Pool.parmap pool)
                    in
                    (match o.status with
                    | Failed _ when policy.fail_fast -> Atomic.set aborted true
                    | _ -> ());
                    o)
              looked_up))
  in
  (* Phase 3 (serial): cache stores for fresh successes, in job order. *)
  (match cache with
  | None -> ()
  | Some c ->
      host "cache.store" (fun () ->
          Array.iteri
            (fun i (_, k, _) ->
              match (k, outcomes.(i)) with
              | Some k, { cached = false; status = Done a; _ } ->
                  Cache.store c k a
              | _ -> ())
            looked_up));
  Array.to_list outcomes

(* --- failure reporting --- *)

let diag_kind = function
  | Tca_util.Diag.Parse _ -> "parse"
  | Tca_util.Diag.Domain _ -> "domain"
  | Tca_util.Diag.Non_finite _ -> "non_finite"
  | Tca_util.Diag.Empty_input _ -> "empty_input"
  | Tca_util.Diag.Ragged_input _ -> "ragged_input"
  | Tca_util.Diag.Invalid _ -> "invalid"
  | Tca_util.Diag.Watchdog _ -> "watchdog"
  | Tca_util.Diag.Task_failure _ -> "task_failure"
  | Tca_util.Diag.Deadline _ -> "deadline"

let count p outcomes = List.length (List.filter p outcomes)

let failures outcomes =
  List.filter_map
    (fun o -> match o.status with Failed f -> Some (o, f) | _ -> None)
    outcomes

let first_failure outcomes =
  match failures outcomes with (_, f) :: _ -> Some f.diag | [] -> None

(* Everything in the report is stable across [--jobs N]: input order,
   configured budgets — no wall-clock, no backtraces (those stay inside
   the [Task_failure] payload for interactive debugging). The
   failure-path CI diff relies on this. *)
let failure_report outcomes =
  let open Tca_util.Json in
  Obj
    [
      ("succeeded",
       Int
         (count
            (fun o ->
              match o.status with Done _ -> not o.cached | _ -> false)
            outcomes));
      ("cached", Int (count (fun o -> o.cached) outcomes));
      ("failed", Int (List.length (failures outcomes)));
      ("skipped",
       Int (count (fun o -> o.status = Skipped) outcomes));
      ( "failures",
        List
          (List.map
             (fun (o, f) ->
               Obj
                 [
                   ("job", String o.job.Job.name);
                   ("fingerprint", String o.fingerprint);
                   ("kind", String (diag_kind f.diag));
                   ("diag", String (Tca_util.Diag.to_string f.diag));
                   ("exit_code", Int (Tca_util.Diag.exit_code f.diag));
                 ])
             (failures outcomes)) );
      ( "skipped_jobs",
        List
          (List.filter_map
             (fun o ->
               match o.status with
               | Skipped -> Some (String o.job.Job.name)
               | _ -> None)
             outcomes) );
    ]

let join_telemetry ~into outcomes =
  List.iter
    (fun o ->
      match o.telemetry with
      | Some child -> Tca_telemetry.Sink.join ~into child
      | None -> ())
    outcomes

(* The whole run sits under [profile.total] on the calling domain's
   lane; the profiler's component table decomposes exactly that span, so
   100% of the profiled wall-clock is accounted for. The task-sink merge
   happens inside it — fork/join cost is part of the run, not
   bookkeeping after it. *)
let run_profiled ?quick ?jobs js =
  let module T = Tca_telemetry in
  let host = T.Sink.create () in
  let h = Some host in
  let outcomes =
    T.Timing.with_span h T.Profiler.total_span_name (fun () ->
        let outcomes =
          run ?quick ~collect_telemetry:true ~host_telemetry:host ?jobs js
        in
        T.Timing.with_span h "telemetry.merge" (fun () ->
            join_telemetry ~into:host outcomes);
        outcomes)
  in
  (outcomes, host)
