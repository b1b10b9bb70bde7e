(* The experiment engine: artifacts, pool, registry, cache, scheduler.

   The load-bearing assertions are the engine invariants the rest of
   the repo depends on: [--jobs 1] and [--jobs N] produce bit-identical
   artifacts (including merged telemetry event sequences), a warm cache
   re-serves identical artifacts without re-running bodies, and the
   public artifact JSON schema is pinned by a golden string. *)

module A = Tca_engine.Artifact
module Job = Tca_engine.Job
module Registry = Tca_engine.Registry
module Pool = Tca_engine.Pool
module Cache = Tca_engine.Cache
module Scheduler = Tca_engine.Scheduler

let demo_artifact () =
  A.make ~job:"demo" ~title:"Demo artifact"
    [
      A.Table
        (A.table ~name:"t" ~headers:[ "k"; "x" ]
           [ [ A.text "a"; A.flt ~decimals:2 1.5 ]; [ A.text "b"; A.int 3 ] ]);
      A.Note "a note";
      A.Table
        (A.table ~in_text:false ~name:"hidden" ~headers:[ "y" ]
           [ [ A.sci 1.0e6 ] ]);
    ]

(* --- artifact views --- *)

let test_cell_rendering () =
  Alcotest.(check string) "fixed" "1.50" (A.cell_text (A.flt ~decimals:2 1.5));
  Alcotest.(check string) "default decimals" "1.500" (A.cell_text (A.flt 1.5));
  Alcotest.(check string) "sci" "1.0e+06" (A.cell_text (A.sci 1.0e6));
  Alcotest.(check string) "pct" "+12.5%" (A.cell_text (A.pct 12.49999));
  Alcotest.(check string) "int" "42" (A.cell_text (A.int 42));
  (* raw keeps full float precision for CSV *)
  Alcotest.(check string) "raw" "1.5" (A.cell_raw (A.flt ~decimals:2 1.5))

let test_text_view () =
  let txt = A.to_text (demo_artifact ()) in
  Alcotest.(check bool) "title" true
    (String.length txt > 0 && String.sub txt 0 13 = "Demo artifact");
  let contains hay needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length hay
      && (String.sub hay i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "note rendered" true (contains txt "a note");
  Alcotest.(check bool) "in-text table" true (contains txt "1.50");
  Alcotest.(check bool) "hidden table excluded" false (contains txt "hidden")

let test_csv_view () =
  (* multiple tables -> named sections; all tables present, even
     in_text:false ones *)
  let csv = A.to_csv (demo_artifact ()) in
  Alcotest.(check bool) "t section" true
    (String.length csv > 0 && String.sub csv 0 3 = "# t");
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check bool) "hidden section" true
    (List.mem "# hidden" lines);
  (* single table -> bare CSV *)
  let one =
    A.of_table ~job:"j" ~title:"" (A.table ~name:"s" ~headers:[ "h" ] [])
  in
  Alcotest.(check string) "bare csv" "h\n" (A.to_csv one)

let test_ragged_rejected () =
  match A.table ~name:"r" ~headers:[ "a"; "b" ] [ [ A.int 1 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged row accepted"

let test_json_schema_golden () =
  (* The public JSON schema, pinned: {"job","title","tables":[{"name",
     "headers","rows"}],"notes"}. Changing this string is a consumer-
     visible break — bump Cache.version_salt alongside it. *)
  let expected =
    "{\"job\":\"demo\",\"title\":\"Demo artifact\",\
     \"tables\":[{\"name\":\"t\",\"headers\":[\"k\",\"x\"],\
     \"rows\":[[\"a\",1.5],[\"b\",3]]},\
     {\"name\":\"hidden\",\"headers\":[\"y\"],\"rows\":[[1000000.0]]}],\
     \"notes\":[\"a note\"]}"
  in
  Alcotest.(check string) "golden json" expected
    (Tca_util.Json.to_string (A.to_json (demo_artifact ())))

let test_serialize_roundtrip () =
  let a =
    A.make ~job:"rt" ~title:"t"
      [
        A.Table
          (A.table ~name:"n" ~headers:[ "c" ]
             [
               [ A.flt Float.nan ]; [ A.flt Float.infinity ];
               [ A.flt 0.1 ]; [ A.pct (-3.5) ]; [ A.sci 1.0e-9 ];
             ]);
        A.Note "";
      ]
  in
  match A.deserialize (A.serialize a) with
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok b ->
      Alcotest.(check string) "fingerprint stable" (A.fingerprint a)
        (A.fingerprint b)

let test_deserialize_rejects_garbage () =
  let bad j =
    match A.deserialize j with
    | Error (Tca_util.Diag.Invalid _) -> ()
    | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
    | Ok _ -> Alcotest.fail "garbage accepted"
  in
  bad Tca_util.Json.Null;
  bad (Tca_util.Json.Obj [ ("v", Tca_util.Json.Int 999) ]);
  bad
    (Tca_util.Json.Obj
       [ ("v", Tca_util.Json.Int 1); ("job", Tca_util.Json.Int 3) ])

(* --- pool --- *)

let test_pool_order () =
  Pool.with_pool ~workers:3 @@ fun pool ->
  let xs = Array.init 100 Fun.id in
  let ys = Pool.map pool (fun i -> i * i) xs in
  Array.iteri
    (fun i y -> Alcotest.(check int) "slot" (i * i) y)
    ys

let test_pool_workers_zero () =
  Pool.with_pool ~workers:0 @@ fun pool ->
  let ys = Pool.map pool string_of_int [| 1; 2; 3 |] in
  Alcotest.(check (array string)) "serial path" [| "1"; "2"; "3" |] ys

let test_pool_nested () =
  (* A task that itself maps on the same pool must not deadlock: the
     caller participates in draining the queue. *)
  Pool.with_pool ~workers:2 @@ fun pool ->
  let ys =
    Pool.map pool
      (fun i ->
        Array.fold_left ( + ) 0 (Pool.map pool (fun j -> i + j) [| 1; 2; 3 |]))
      [| 10; 20; 30 |]
  in
  Alcotest.(check (array int)) "nested" [| 36; 66; 96 |] ys

exception Boom of int

let test_pool_first_error () =
  Pool.with_pool ~workers:3 @@ fun pool ->
  match
    Pool.map pool
      (fun i -> if i mod 2 = 1 then raise (Boom i) else i)
      (Array.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "error swallowed"
  | exception Boom i -> Alcotest.(check int) "lowest index wins" 1 i

(* --- registry --- *)

let job_named name =
  Job.make ~name ~title:name (fun _ -> A.make ~job:name ~title:name [])

let test_registry_duplicate () =
  let r = Registry.create () in
  Registry.register_exn r (job_named "a");
  match Registry.register r (job_named "a") with
  | Error (Tca_util.Diag.Invalid _) -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok () -> Alcotest.fail "duplicate accepted"

let test_registry_resolve () =
  let r = Registry.create () in
  List.iter (fun n -> Registry.register_exn r (job_named n)) [ "a"; "b"; "c" ];
  (match Registry.resolve r [ "c"; "a" ] with
  | Ok js ->
      Alcotest.(check (list string)) "order preserved" [ "c"; "a" ]
        (List.map (fun (j : Job.t) -> j.Job.name) js)
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d));
  match Registry.resolve r [ "a"; "nope" ] with
  | Error (Tca_util.Diag.Invalid _) -> ()
  | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "unknown name resolved"

let legacy_figure_ids =
  [
    "table1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8";
    "logca"; "partial"; "design"; "mechanistic"; "occupancy"; "cores";
    "hashmap"; "regexv"; "strfn"; "composition"; "config_wall";
  ]

let test_every_figure_id_registered () =
  (* Every paper table/figure and extension id resolves through the
     registry, plus one simulate.* job per workload family — so
     `tca run` has no orphan dispatch. *)
  let r = Tca_experiments.Jobs.registry () in
  List.iter
    (fun id ->
      match Registry.find r id with
      | Some j -> Alcotest.(check string) "name" id j.Job.name
      | None -> Alcotest.fail ("unregistered figure id: " ^ id))
    legacy_figure_ids;
  List.iter
    (fun (cli, _) ->
      let id = "simulate." ^ cli in
      if Registry.find r id = None then
        Alcotest.fail ("unregistered workload job: " ^ id))
    Tca_experiments.Exp_common.workload_kinds;
  (* The multi-unit and configuration validation jobs are not
     per-workload simulate.* jobs (neither is in workload_kinds:
     multi_tca needs its own unit table, config_wall its own config
     knobs), so they are accounted for separately. *)
  List.iter
    (fun id ->
      if Registry.find r id = None then
        Alcotest.fail ("unregistered workload job: " ^ id))
    [ "simulate.multi_tca"; "simulate.config_wall" ];
  Alcotest.(check int) "complete listing"
    (List.length legacy_figure_ids
    + List.length Tca_experiments.Exp_common.workload_kinds
    + 2)
    (Registry.length r)

let test_listing_is_sorted_and_complete () =
  let r = Tca_experiments.Jobs.registry () in
  let names = Registry.names r in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names;
  Alcotest.(check int) "all () matches names"
    (List.length names)
    (List.length (Registry.all r))

(* --- cache --- *)

let artifact_job ~name ~params artifact =
  Job.make ~name ~title:name ~params (fun _ -> artifact)

let test_cache_key_sensitivity () =
  let c = Cache.create () in
  let j1 = artifact_job ~name:"k" ~params:[ ("p", "1") ] (demo_artifact ()) in
  let j2 = artifact_job ~name:"k" ~params:[ ("p", "2") ] (demo_artifact ()) in
  let j3 = artifact_job ~name:"k2" ~params:[ ("p", "1") ] (demo_artifact ()) in
  let k1 = Cache.key c j1 ~quick:false in
  Alcotest.(check bool) "params change key" false
    (k1 = Cache.key c j2 ~quick:false);
  Alcotest.(check bool) "name changes key" false
    (k1 = Cache.key c j3 ~quick:false);
  Alcotest.(check bool) "quick changes key" false
    (k1 = Cache.key c j1 ~quick:true);
  Alcotest.(check string) "key is stable" k1 (Cache.key c j1 ~quick:false)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tca-engine-test-%d" (Unix.getpid ()))
  in
  let rec cleanup d =
    if Sys.file_exists d then begin
      if Sys.is_directory d then begin
        Array.iter (fun e -> cleanup (Filename.concat d e)) (Sys.readdir d);
        Sys.rmdir d
      end
      else Sys.remove d
    end
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) (fun () -> f dir)

let test_cache_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let a = demo_artifact () in
  let j = artifact_job ~name:"disk" ~params:[] a in
  let c1 = Cache.create ~dir () in
  let k = Cache.key c1 j ~quick:false in
  Alcotest.(check bool) "cold miss" true (Cache.find c1 k = None);
  Cache.store c1 k a;
  (* a second process (fresh cache, same dir) re-serves the artifact *)
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 k with
  | Some b ->
      Alcotest.(check string) "identical artifact" (A.fingerprint a)
        (A.fingerprint b)
  | None -> Alcotest.fail "disk entry not found");
  Alcotest.(check int) "hit counted" 1 (Cache.hits c2);
  (* corruption degrades to a quarantined miss, never an error *)
  let oc = open_out (Filename.concat dir (k ^ ".json")) in
  output_string oc "{not json";
  close_out oc;
  let c3 = Cache.create ~dir () in
  Alcotest.(check bool) "corrupt = miss" true (Cache.find c3 k = None);
  Alcotest.(check int) "corrupt entry quarantined" 1 (Cache.quarantined c3);
  Alcotest.(check bool) "moved off the addressed path" false
    (Sys.file_exists (Filename.concat dir (k ^ ".json")));
  Alcotest.(check bool) "kept for post-mortem" true
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "quarantine") (k ^ ".json")));
  (* the slot is reusable after quarantine *)
  Cache.store c3 k a;
  let c4 = Cache.create ~dir () in
  (match Cache.find c4 k with
  | Some b ->
      Alcotest.(check string) "re-stored artifact served" (A.fingerprint a)
        (A.fingerprint b)
  | None -> Alcotest.fail "re-stored entry not found")

(* --- scheduler: the bit-identity invariant --- *)

(* Cheap deterministic jobs that still exercise par + telemetry: the
   body spreads chunks over ctx.par with [Timing.fan_out], like the real
   drivers do. Each chunk sleeps [chunk_s] first. *)
let synth_job ?(chunk_s = 0.) name n =
  Job.make ~name ~title:name (fun (ctx : Job.ctx) ->
      let cells =
        Tca_telemetry.Timing.fan_out ?telemetry:ctx.Job.telemetry
          ~par:ctx.Job.par
          (fun ~telemetry i ->
            if chunk_s > 0. then Unix.sleepf chunk_s;
            Option.iter
              (fun s ->
                Tca_telemetry.Sink.instant s ~ts:(float_of_int i)
                  (Printf.sprintf "%s.%d" name i))
              telemetry;
            [ A.int i; A.flt (sin (float_of_int i)) ])
          (Array.init n Fun.id)
      in
      A.make ~job:name ~title:name
        [
          A.Table
            (A.table ~name:"chunks" ~headers:[ "i"; "v" ]
               (Array.to_list cells));
        ])

(* A job that does not fan out: it sleeps [seconds] without a
   checkpoint, so no deadline trips it. *)
let sleep_job name seconds =
  Job.make ~name ~title:name (fun (_ : Job.ctx) ->
      Unix.sleepf seconds;
      A.make ~job:name ~title:name [ A.Note name ])

let merged_sink outcomes =
  let into = Tca_telemetry.Sink.create () in
  Scheduler.join_telemetry ~into outcomes;
  into

let fingerprints outcomes =
  List.map
    (fun (o : Scheduler.outcome) -> A.fingerprint (Scheduler.artifact_exn o))
    outcomes

let event_shape (e : Tca_telemetry.Sink.event) =
  (* everything except wall-clock-dependent fields *)
  (e.Tca_telemetry.Sink.name, e.Tca_telemetry.Sink.cat,
   e.Tca_telemetry.Sink.ph, e.Tca_telemetry.Sink.pid)

(* Artifacts and merged telemetry of a [--jobs 1] and a [--jobs 4] run
   of the same job list. *)
let check_jobs_identity js =
  let serial = Scheduler.run ~quick:true ~collect_telemetry:true ~jobs:1 js in
  let parallel =
    Scheduler.run ~quick:true ~collect_telemetry:true ~jobs:4 js
  in
  Alcotest.(check (list string)) "artifacts bit-identical"
    (fingerprints serial) (fingerprints parallel);
  let shape outcomes =
    List.map event_shape
      (Tca_telemetry.Sink.events (merged_sink outcomes))
  in
  Alcotest.(check int) "same merged event count"
    (List.length (shape serial))
    (List.length (shape parallel));
  Alcotest.(check bool) "merged telemetry identical" true
    (shape serial = shape parallel)

let test_scheduler_jobs_bit_identity () =
  check_jobs_identity
    (List.init 6 (fun i -> synth_job (Printf.sprintf "s%d" i) (5 + i)))

let test_scheduler_real_jobs_bit_identity () =
  (* The same invariant over real registered drivers (quick sweeps):
     model-only and simulator-backed jobs alike, with one job of each
     fan-out shape (a validation sweep, a per-point simulator sweep, a
     scenario fan-out and nested per-variant mode comparisons). *)
  let r = Tca_experiments.Jobs.registry () in
  let js =
    match
      Registry.resolve r
        [
          "table1"; "logca"; "fig3"; "fig8"; "hashmap"; "partial";
          "simulate.multi_tca"; "simulate.config_wall";
        ]
    with
    | Ok js -> js
    | Error d -> Alcotest.fail (Tca_util.Diag.to_string d)
  in
  check_jobs_identity js

let test_scheduler_outcome_order_and_seconds () =
  let js = [ synth_job "a" 3; synth_job "b" 4 ] in
  let outcomes = Scheduler.run ~jobs:2 js in
  Alcotest.(check (list string)) "input order"
    [ "a"; "b" ]
    (List.map
       (fun (o : Scheduler.outcome) -> o.Scheduler.job.Job.name)
       outcomes);
  List.iter
    (fun (o : Scheduler.outcome) ->
      Alcotest.(check bool) "not cached" false o.Scheduler.cached;
      Alcotest.(check bool) "timed" true (o.Scheduler.seconds >= 0.0))
    outcomes

let test_scheduler_warm_cache () =
  with_temp_dir @@ fun dir ->
  let js = [ synth_job "w" 8 ] in
  let cache = Cache.create ~dir () in
  let cold = Scheduler.run ~cache ~jobs:2 js in
  Alcotest.(check (list bool)) "cold runs" [ false ]
    (List.map (fun (o : Scheduler.outcome) -> o.Scheduler.cached) cold);
  (* same process, in-memory hit *)
  let warm = Scheduler.run ~cache ~jobs:2 js in
  Alcotest.(check (list bool)) "warm cached" [ true ]
    (List.map (fun (o : Scheduler.outcome) -> o.Scheduler.cached) warm);
  Alcotest.(check (list string)) "identical artifact"
    (fingerprints cold) (fingerprints warm);
  (* fresh cache over the same dir: disk hit *)
  let cache2 = Cache.create ~dir () in
  let disk = Scheduler.run ~cache:cache2 ~jobs:1 js in
  Alcotest.(check (list bool)) "disk cached" [ true ]
    (List.map (fun (o : Scheduler.outcome) -> o.Scheduler.cached) disk);
  Alcotest.(check (list string)) "identical from disk"
    (fingerprints cold) (fingerprints disk)

let test_scheduler_quick_does_not_alias () =
  with_temp_dir @@ fun dir ->
  let js = [ synth_job "q" 4 ] in
  let cache = Cache.create ~dir () in
  let _ = Scheduler.run ~cache ~quick:false js in
  let second = Scheduler.run ~cache ~quick:true js in
  Alcotest.(check (list bool)) "quick misses full-run entry" [ false ]
    (List.map (fun (o : Scheduler.outcome) -> o.Scheduler.cached) second)

(* --- scheduler: supervision, deadlines, fail-fast --- *)

module Inject = Tca_engine.Inject

let statuses outcomes =
  List.map
    (fun (o : Scheduler.outcome) ->
      match o.Scheduler.status with
      | Scheduler.Done _ -> "done"
      | Scheduler.Failed { diag; _ } -> Scheduler.diag_kind diag
      | Scheduler.Skipped -> "skipped")
    outcomes

let report_string outcomes =
  Tca_util.Json.to_string (Scheduler.failure_report outcomes)

let test_scheduler_failure_containment () =
  (* One poisoned job: the pool survives, the other N-1 artifacts are
     produced, and the whole outcome list — hence the failure report —
     is bit-identical across --jobs. *)
  let js =
    Inject.wrap
      [ ("s1", Inject.Raise) ]
      (List.init 4 (fun i -> synth_job (Printf.sprintf "s%d" i) (4 + i)))
  in
  let serial = Scheduler.run ~jobs:1 js in
  let parallel = Scheduler.run ~jobs:4 js in
  Alcotest.(check (list string)) "one failure, three artifacts"
    [ "done"; "task_failure"; "done"; "done" ]
    (statuses serial);
  Alcotest.(check (list string)) "statuses identical across jobs"
    (statuses serial) (statuses parallel);
  Alcotest.(check string) "failure report identical across jobs"
    (report_string serial) (report_string parallel);
  let survivors os =
    List.filter_map
      (fun o -> Option.map A.fingerprint (Scheduler.artifact o))
      os
  in
  Alcotest.(check (list string)) "survivors bit-identical"
    (survivors serial) (survivors parallel);
  (match Scheduler.first_failure serial with
  | Some (Tca_util.Diag.Task_failure { job; _ } as d) ->
      Alcotest.(check string) "failing job named" "s1" job;
      Alcotest.(check int) "exit code" 9 (Tca_util.Diag.exit_code d)
  | _ -> Alcotest.fail "expected Task_failure as first failure")

let test_scheduler_deadline () =
  let js =
    Inject.wrap
      [ ("hang", Inject.Hang) ]
      [ synth_job "ok" 4; synth_job "hang" 4 ]
  in
  let policy =
    { Scheduler.default_policy with Scheduler.deadline_s = Some 0.05 }
  in
  List.iter
    (fun jobs ->
      let outcomes = Scheduler.run ~policy ~jobs js in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs %d: hang trips deadline, ok completes" jobs)
        [ "done"; "deadline" ] (statuses outcomes);
      match List.nth outcomes 1 with
      | {
          Scheduler.status =
            Scheduler.Failed { diag = Tca_util.Diag.Deadline { job; seconds } };
          _;
        } ->
          Alcotest.(check string) "job named" "hang" job;
          (* the configured budget, not the elapsed time: deterministic *)
          Alcotest.(check (float 0.0)) "budget recorded" 0.05 seconds
      | _ -> Alcotest.fail "expected Deadline failure")
    [ 1; 2 ]

let test_scheduler_fan_out_deadline () =
  (* At one lane, a job that fans out waits only for its own chunks. Had
     the two slow jobs queued after it run inside its [ctx.par] wait,
     its deadline would cover their 0.2 s and trip. *)
  let js =
    [ synth_job "fast" 4; sleep_job "slow1" 0.1; sleep_job "slow2" 0.1 ]
  in
  let policy =
    { Scheduler.default_policy with Scheduler.deadline_s = Some 0.15 }
  in
  Alcotest.(check (list string)) "every job within its own budget"
    [ "done"; "done"; "done" ]
    (statuses (Scheduler.run ~policy ~jobs:1 js))

let test_scheduler_fail_fast () =
  let js =
    Inject.wrap
      [ ("s0", Inject.Raise) ]
      (List.init 3 (fun i -> synth_job (Printf.sprintf "s%d" i) 4))
  in
  let policy = { Scheduler.default_policy with Scheduler.fail_fast = true } in
  (* serial fail-fast is deterministic: everything after the failure is
     skipped *)
  let outcomes = Scheduler.run ~policy ~jobs:1 js in
  Alcotest.(check (list string)) "rest skipped"
    [ "task_failure"; "skipped"; "skipped" ]
    (statuses outcomes);
  (* keep-going (default) runs everything *)
  let outcomes = Scheduler.run ~jobs:1 js in
  Alcotest.(check (list string)) "keep-going runs all"
    [ "task_failure"; "done"; "done" ]
    (statuses outcomes)

let test_scheduler_failed_not_cached () =
  with_temp_dir @@ fun dir ->
  let js = Inject.wrap [ ("s0", Inject.Raise) ] [ synth_job "s0" 4 ] in
  let cache = Cache.create ~dir () in
  let _ = Scheduler.run ~cache js in
  (* a failure must not leave a cache entry behind: the honest job runs
     fresh on the next invocation and succeeds *)
  let honest = [ synth_job "s0" 4 ] in
  match Scheduler.run ~cache:(Cache.create ~dir ()) honest with
  | [ { Scheduler.status = Scheduler.Done _; cached; _ } ] ->
      Alcotest.(check bool) "not served from cache" false cached
  | _ -> Alcotest.fail "expected fresh success"

let test_scheduler_corrupt_artifact_differs () =
  (* an injected Corrupt_artifact yields a valid artifact whose bytes
     differ from the honest run — the fuzz harness's oracle for
     "corruption is visible" *)
  let honest =
    match Scheduler.run [ synth_job "c" 5 ] with
    | [ o ] -> A.fingerprint (Scheduler.artifact_exn o)
    | _ -> assert false
  in
  match
    Scheduler.run
      (Inject.wrap [ ("c", Inject.Corrupt_artifact) ] [ synth_job "c" 5 ])
  with
  | [ { Scheduler.status = Scheduler.Done a; _ } ] ->
      Alcotest.(check bool) "corrupted artifact differs" false
        (A.fingerprint a = honest)
  | _ -> Alcotest.fail "corrupt injection must still produce an artifact"

let test_scheduler_metrics () =
  (* Every fresh body runs exactly once, failed or not: [attempts] is 1
     for a run body and 0 for a cache hit, and a failure record carries
     no attempt count. *)
  with_temp_dir @@ fun dir ->
  let js =
    Inject.wrap
      [ ("s1", Inject.Raise) ]
      (List.init 3 (fun i -> synth_job (Printf.sprintf "s%d" i) 4))
  in
  let cache = Cache.create ~dir () in
  let outcomes = Scheduler.run ~cache js in
  let report = Scheduler.failure_report outcomes in
  let count field =
    Option.bind (Tca_util.Json.member field report) Tca_util.Json.to_int_opt
  in
  Alcotest.(check (option int)) "succeeded" (Some 2) (count "succeeded");
  Alcotest.(check (option int)) "failed" (Some 1) (count "failed");
  (match Tca_util.Json.member "failures" report with
  | Some (Tca_util.Json.List [ Tca_util.Json.Obj kvs ]) ->
      Alcotest.(check (list string)) "failure record keys"
        [ "job"; "fingerprint"; "kind"; "diag"; "exit_code" ]
        (List.map fst kvs)
  | _ -> Alcotest.fail "expected one failure record");
  let attempts =
    List.map (fun (o : Scheduler.outcome) -> o.Scheduler.attempts)
  in
  Alcotest.(check (list int)) "each body ran once" [ 1; 1; 1 ]
    (attempts outcomes);
  Alcotest.(check (list int)) "hits do not run; the failure reruns"
    [ 0; 1; 0 ]
    (attempts (Scheduler.run ~cache js))

(* --- Profiling instrumentation: task spans + host phases --- *)

let test_scheduler_task_spans () =
  let n = 4 in
  let js = List.init n (fun i -> synth_job (Printf.sprintf "p%d" i) 3) in
  let outcomes = Scheduler.run ~collect_telemetry:true ~jobs:2 js in
  let merged = merged_sink outcomes in
  let task_spans =
    List.filter
      (fun (e : Tca_telemetry.Sink.event) ->
        e.Tca_telemetry.Sink.name = "task.run"
        && e.Tca_telemetry.Sink.ph = 'X')
      (Tca_telemetry.Sink.events merged)
  in
  Alcotest.(check int) "one task.run span per fresh job" n
    (List.length task_spans);
  List.iter
    (fun (e : Tca_telemetry.Sink.event) ->
      let arg k = List.assoc_opt k e.Tca_telemetry.Sink.args in
      (match arg "job" with
      | Some (Tca_util.Json.String _) -> ()
      | _ -> Alcotest.fail "task.run without job arg");
      (match arg "wait_us" with
      | Some (Tca_util.Json.Float w) ->
          Alcotest.(check bool) "queue wait >= 0" true (w >= 0.0)
      | _ -> Alcotest.fail "task.run without wait_us arg");
      Alcotest.(check (list string)) "task.run args"
        [
          "job"; "wait_us"; "gc_minor_words"; "gc_promoted_words";
          "gc_major_words"; "gc_minor_collections"; "gc_major_collections";
        ]
        (List.map fst e.Tca_telemetry.Sink.args);
      List.iter
        (fun key ->
          match arg key with
          | Some (Tca_util.Json.Int v) ->
              Alcotest.(check bool) (key ^ " >= 0") true (v >= 0)
          | _ -> Alcotest.failf "task.run without %s arg" key)
        [
          "gc_minor_words"; "gc_promoted_words"; "gc_major_words";
          "gc_minor_collections"; "gc_major_collections";
        ])
    task_spans;
  let metrics = Tca_telemetry.Metrics.of_sink merged in
  let wait_count =
    List.fold_left
      (fun j k -> Option.bind j (Tca_util.Json.member k))
      (Some (Tca_telemetry.Metrics.to_json metrics))
      [ "histograms"; "task.wait.seconds"; "count" ]
    |> Fun.flip Option.bind Tca_util.Json.to_int_opt
  in
  Alcotest.(check (option int)) "one wait observation per task" (Some n)
    wait_count;
  let summed_arg key =
    List.fold_left
      (fun acc (e : Tca_telemetry.Sink.event) ->
        match List.assoc_opt key e.Tca_telemetry.Sink.args with
        | Some (Tca_util.Json.Int v) -> acc + v
        | _ -> acc)
      0 task_spans
  in
  Alcotest.(check int) "gc words counted" (summed_arg "gc_minor_words")
    (Tca_telemetry.Metrics.counter_value metrics "task.gc.minor_words")

let test_scheduler_host_telemetry () =
  with_temp_dir @@ fun dir ->
  let js = List.init 3 (fun i -> synth_job (Printf.sprintf "h%d" i) 3) in
  let host = Tca_telemetry.Sink.create () in
  let cache = Cache.create ~dir () in
  let _ = Scheduler.run ~cache ~host_telemetry:host ~jobs:2 js in
  let names =
    List.map
      (fun (e : Tca_telemetry.Sink.event) -> e.Tca_telemetry.Sink.name)
      (Tca_telemetry.Sink.events host)
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true
        (List.mem phase names))
    [ "cache.lookup"; "pool.spawn"; "sched.batch"; "pool.shutdown";
      "cache.store" ];
  (* host spans all live on the calling domain's lane *)
  List.iter
    (fun (e : Tca_telemetry.Sink.event) ->
      Alcotest.(check int) "owner lane"
        (Tca_telemetry.Timing.domain_tid ())
        e.Tca_telemetry.Sink.tid)
    (Tca_telemetry.Sink.events host)

let test_scheduler_profiled_bit_identity () =
  (* The full instrumentation stack on — host sink, task sinks, GC
     deltas — must not perturb artifacts or their identity across
     --jobs. This is the profiler-exclusion contract: profile output is
     not part of the artifact set, artifacts stay bit-identical. *)
  let js = List.init 5 (fun i -> synth_job (Printf.sprintf "b%d" i) (4 + i)) in
  let run jobs =
    let host = Tca_telemetry.Sink.create () in
    Scheduler.run ~collect_telemetry:true ~host_telemetry:host ~jobs js
  in
  let plain = Scheduler.run ~jobs:1 js in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check (list string)) "profiled serial = unprofiled"
    (fingerprints plain) (fingerprints serial);
  Alcotest.(check (list string)) "profiled parallel = serial"
    (fingerprints serial) (fingerprints parallel)

(* Replace every float by null: masks wall-clock noise while keeping
   structure, keys, names, counts and key order comparable. The
   self_time table is re-sorted by span name — its natural order is by
   measured self time, which the masking just erased. The gc block's
   counters are integers but just as schedule-dependent as the times,
   so they are masked too (keys stay). *)
let rec mask_floats = function
  | Tca_util.Json.Float _ -> Tca_util.Json.Null
  | Tca_util.Json.Obj kvs ->
      Tca_util.Json.Obj
        (List.map
           (fun (k, v) ->
             let v = mask_floats v in
             match (k, v) with
             | "self_time", Tca_util.Json.List rows ->
                 let name r =
                   match Tca_util.Json.member "name" r with
                   | Some (Tca_util.Json.String s) -> s
                   | _ -> ""
                 in
                 ( k,
                   Tca_util.Json.List
                     (List.sort
                        (fun a b -> String.compare (name a) (name b))
                        rows) )
             | "gc", Tca_util.Json.Obj counters ->
                 ( k,
                   Tca_util.Json.Obj
                     (List.map
                        (fun (ck, _) -> (ck, Tca_util.Json.Null))
                        counters) )
             | _ -> (k, v))
           kvs)
  | Tca_util.Json.List vs -> Tca_util.Json.List (List.map mask_floats vs)
  | v -> v

let test_profile_report_deterministic () =
  (* Two identical serial profiled runs render byte-identical profile
     reports once times are masked: same schema, same span names, same
     call counts, same component keys, same lane set. *)
  let js = List.init 4 (fun i -> synth_job (Printf.sprintf "d%d" i) 4) in
  let profile_json () =
    let _, host = Scheduler.run_profiled ~jobs:1 js in
    let p = Tca_telemetry.Profiler.of_sink host in
    ( Tca_util.Json.to_string_indent
        (mask_floats (Tca_telemetry.Profiler.to_json p)),
      Tca_telemetry.Profiler.attributed_fraction p )
  in
  let a, frac_a = profile_json () in
  let b, _ = profile_json () in
  Alcotest.(check string) "masked reports byte-identical" a b;
  (* the ISSUE's acceptance bar: >= 90% of wall-clock attributed *)
  Alcotest.(check bool) "attribution >= 0.9" true (frac_a >= 0.9)

let test_profile_task_time_bounded () =
  (* A job's [task.run] span covers its own work only, so the task spans
     on one lane never overlap and sum to at most its wall time. A
     fan-out that ran sibling jobs would count each of them twice. *)
  let js =
    List.init 4 (fun i -> synth_job ~chunk_s:0.005 (Printf.sprintf "f%d" i) 4)
  in
  List.iter
    (fun jobs ->
      let _, host = Scheduler.run_profiled ~jobs js in
      let p = Tca_telemetry.Profiler.of_sink host in
      let task_s =
        List.fold_left
          (fun acc (r : Tca_telemetry.Profiler.row) ->
            if r.Tca_telemetry.Profiler.name = "task.run" then
              acc +. r.Tca_telemetry.Profiler.total_s
            else acc)
          0. p.Tca_telemetry.Profiler.rows
      in
      let bound =
        p.Tca_telemetry.Profiler.wall_s
        *. float_of_int (List.length p.Tca_telemetry.Profiler.lanes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: task.run %.4f s <= wall x lanes %.4f s" jobs
           task_s bound)
        true
        (task_s <= bound +. 1e-6))
    [ 1; 2 ]

let () =
  Alcotest.run "tca_engine"
    [
      ( "artifact",
        [
          Alcotest.test_case "cell rendering" `Quick test_cell_rendering;
          Alcotest.test_case "text view" `Quick test_text_view;
          Alcotest.test_case "csv view" `Quick test_csv_view;
          Alcotest.test_case "ragged rejected" `Quick test_ragged_rejected;
          Alcotest.test_case "json schema golden" `Quick
            test_json_schema_golden;
          Alcotest.test_case "serialize roundtrip" `Quick
            test_serialize_roundtrip;
          Alcotest.test_case "deserialize rejects garbage" `Quick
            test_deserialize_rejects_garbage;
        ] );
      ( "pool",
        [
          Alcotest.test_case "slot order" `Quick test_pool_order;
          Alcotest.test_case "workers 0" `Quick test_pool_workers_zero;
          Alcotest.test_case "nested maps" `Quick test_pool_nested;
          Alcotest.test_case "first error wins" `Quick test_pool_first_error;
        ] );
      ( "registry",
        [
          Alcotest.test_case "duplicate rejected" `Quick
            test_registry_duplicate;
          Alcotest.test_case "resolve" `Quick test_registry_resolve;
          Alcotest.test_case "every figure id registered" `Quick
            test_every_figure_id_registered;
          Alcotest.test_case "listing sorted + complete" `Quick
            test_listing_is_sorted_and_complete;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
          Alcotest.test_case "disk roundtrip + corruption" `Quick
            test_cache_disk_roundtrip;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "jobs 1 = jobs 4 (synthetic)" `Quick
            test_scheduler_jobs_bit_identity;
          Alcotest.test_case "jobs 1 = jobs 4 (real drivers)" `Slow
            test_scheduler_real_jobs_bit_identity;
          Alcotest.test_case "outcome order" `Quick
            test_scheduler_outcome_order_and_seconds;
          Alcotest.test_case "warm cache re-serves" `Quick
            test_scheduler_warm_cache;
          Alcotest.test_case "quick does not alias" `Quick
            test_scheduler_quick_does_not_alias;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "failure containment + report identity" `Quick
            test_scheduler_failure_containment;
          Alcotest.test_case "deadline" `Quick test_scheduler_deadline;
          Alcotest.test_case "fan-out keeps its deadline at one lane" `Quick
            test_scheduler_fan_out_deadline;
          Alcotest.test_case "fail-fast vs keep-going" `Quick
            test_scheduler_fail_fast;
          Alcotest.test_case "failure not cached" `Quick
            test_scheduler_failed_not_cached;
          Alcotest.test_case "corrupt artifact differs" `Quick
            test_scheduler_corrupt_artifact_differs;
          Alcotest.test_case "task metrics" `Quick test_scheduler_metrics;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "task spans carry wait + gc" `Quick
            test_scheduler_task_spans;
          Alcotest.test_case "host phase spans" `Quick
            test_scheduler_host_telemetry;
          Alcotest.test_case "profiled run stays bit-identical" `Quick
            test_scheduler_profiled_bit_identity;
          Alcotest.test_case "profile report deterministic" `Quick
            test_profile_report_deterministic;
          Alcotest.test_case "task.run within wall x lanes" `Quick
            test_profile_task_time_bounded;
        ] );
    ]
