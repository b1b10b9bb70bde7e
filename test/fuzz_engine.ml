(* Engine-level fault-injection harness: seeded misbehaving jobs and
   damaged cache files driven through the supervised scheduler, asserting
   the fault-tolerance invariants of the experiment engine:

     1. every run terminates and returns one outcome per job — a raising,
        hanging or corrupting job never tears down the Domain pool or
        costs any other job its artifact;
     2. surviving artifacts are bit-identical to a fault-free serial run
        of the same jobs (and an injected Corrupt_artifact is visible:
        its artifact differs);
     3. failures are fully and deterministically reported: expected diag
        kind per injected fault and a failure report that is
        byte-identical across --jobs 1 / --jobs N;
     4. a damaged on-disk cache — truncated entries (kill -9 mid-write),
        bit flips at rest, orphaned temp files — degrades to quarantined
        misses: recomputed artifacts match the reference and the corrupt
        bytes are never served.

   Deterministic: equal FUZZ_SEED => equal case stream. Override the
   case count with FUZZ_CASES (default 1_000) and the seed with
   FUZZ_SEED. *)

module Prng = Tca_util.Prng
module Faultgen = Tca_util.Faultgen
module Job = Tca_engine.Job
module Scheduler = Tca_engine.Scheduler
module Cache = Tca_engine.Cache
module Inject = Tca_engine.Inject
module A = Tca_engine.Artifact

let cases =
  match Sys.getenv_opt "FUZZ_CASES" with
  | Some s -> int_of_string s
  | None -> 1_000

let seed =
  match Sys.getenv_opt "FUZZ_SEED" with
  | Some s -> int_of_string s
  | None -> 0xE261FE

let failures : (int * string * string) list ref = ref []
let checks = ref 0
let record case what detail = failures := (case, what, detail) :: !failures

let guard case what f =
  incr checks;
  try f ()
  with e -> record case what ("escaped exception: " ^ Printexc.to_string e)

let expect case what cond detail = if not cond then record case what detail

(* Deterministic honest job. Deliberately no [ctx.par]/[ctx.checkpoint]
   use: under a hang-driven deadline policy an honest body must not
   offer the scheduler a cancellation point, or a descheduled domain
   could trip the budget spuriously and make the oracle flaky. The
   alcotest suite covers par/checkpoint threading. *)
let synth_job name n =
  Job.make ~name ~title:name
    ~params:[ ("n", string_of_int n) ]
    (fun (_ : Job.ctx) ->
      let cells =
        Array.to_list
          (Array.init n (fun i ->
               [ A.int i; A.flt (sin (float_of_int (i * i) *. 1.7)) ]))
      in
      A.make ~job:name ~title:name
        [ A.Table (A.table ~name:"chunks" ~headers:[ "i"; "v" ] cells) ])

let fault_counts = Array.make 3 0

let count_fault = function
  | Inject.Raise -> fault_counts.(0) <- fault_counts.(0) + 1
  | Inject.Hang -> fault_counts.(1) <- fault_counts.(1) + 1
  | Inject.Corrupt_artifact -> fault_counts.(2) <- fault_counts.(2) + 1

(* --- scheduler-level injection --- *)

let expected_status plan name =
  match List.assoc_opt name plan with
  | None | Some Inject.Corrupt_artifact -> "done"
  | Some Inject.Raise -> "task_failure"
  | Some Inject.Hang -> "deadline"

let status_string (o : Scheduler.outcome) =
  match o.Scheduler.status with
  | Scheduler.Done _ -> "done"
  | Scheduler.Failed { diag; _ } -> Scheduler.diag_kind diag
  | Scheduler.Skipped -> "skipped"

let scheduler_case i rng =
  let njobs = Prng.int_in rng 4 8 in
  let specs =
    List.init njobs (fun k ->
        (Printf.sprintf "c%d-j%d" i k, Prng.int_in rng 3 7))
  in
  let mk () = List.map (fun (nm, n) -> synth_job nm n) specs in
  (* fault-free serial reference: name -> artifact fingerprint *)
  let reference =
    List.map
      (fun (o : Scheduler.outcome) ->
        (o.Scheduler.job.Job.name, A.fingerprint (Scheduler.artifact_exn o)))
      (Scheduler.run ~jobs:1 (mk ()))
  in
  let fg = Faultgen.create ~seed:(Prng.int rng 0x3FFFFFFF) in
  let nfaults = Prng.int rng 3 in
  let plan =
    List.sort_uniq compare (List.init nfaults (fun _ -> Prng.int rng njobs))
    |> List.map (fun k ->
           let fault = Faultgen.engine_fault fg in
           count_fault fault;
           (fst (List.nth specs k), fault))
  in
  let has_hang = List.exists (fun (_, f) -> f = Inject.Hang) plan in
  let policy =
    {
      Scheduler.deadline_s = (if has_hang then Some 0.005 else None);
      fail_fast = false;
    }
  in
  let check_run what outcomes =
    expect i what
      (List.length outcomes = njobs)
      "missing outcomes: run did not settle every job";
    List.iter
      (fun (o : Scheduler.outcome) ->
        let name = o.Scheduler.job.Job.name in
        let want = expected_status plan name in
        let got = status_string o in
        expect i what (got = want)
          (Printf.sprintf "%s: expected %s, got %s" name want got);
        match (o.Scheduler.status, List.assoc_opt name plan) with
        | Scheduler.Done a, None ->
            (* honest artifact = reference, bit for bit *)
            expect i what
              (A.fingerprint a = List.assoc name reference)
              (name ^ ": surviving artifact differs from fault-free run")
        | Scheduler.Done a, Some Inject.Corrupt_artifact ->
            expect i what
              (A.fingerprint a <> List.assoc name reference)
              (name ^ ": injected corruption produced an identical artifact")
        | _ -> ())
      outcomes;
    outcomes
  in
  guard i "scheduler" @@ fun () ->
  let serial =
    check_run "scheduler -j1" (Scheduler.run ~policy ~jobs:1 (Inject.wrap plan (mk ())))
  in
  let parallel =
    check_run "scheduler -j2" (Scheduler.run ~policy ~jobs:2 (Inject.wrap plan (mk ())))
  in
  let report os = Tca_util.Json.to_string (Scheduler.failure_report os) in
  expect i "scheduler" (report serial = report parallel)
    "failure report differs between -j1 and -j2"

(* --- cache-corruption fuzz --- *)

let rec cleanup d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun e -> cleanup (Filename.concat d e)) (Sys.readdir d);
      Sys.rmdir d
    end
    else Sys.remove d

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let cache_case i rng =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tca-fuzz-engine-%d-%d" (Unix.getpid ()) i)
  in
  cleanup dir;
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  guard i "cache" @@ fun () ->
  let njobs = Prng.int_in rng 3 5 in
  let mk () =
    List.init njobs (fun k ->
        synth_job (Printf.sprintf "c%d-k%d" i k) (3 + k))
  in
  let reference =
    List.map
      (fun o -> A.fingerprint (Scheduler.artifact_exn o))
      (Scheduler.run ~jobs:1 (mk ()))
  in
  (* populate the on-disk cache *)
  let _ = Scheduler.run ~cache:(Cache.create ~dir ()) ~jobs:1 (mk ()) in
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  expect i "cache" (List.length entries = njobs) "store did not write entries";
  (* damage a non-empty subset: Faultgen truncation (kill -9 mid-write
     survivor) or bit flips at rest *)
  let fg = Faultgen.create ~seed:(Prng.int rng 0x3FFFFFFF) in
  let ncorrupt = Prng.int_in rng 1 (List.length entries) in
  List.iteri
    (fun k f ->
      if k < ncorrupt then
        let p = Filename.concat dir f in
        write_file p (Faultgen.corrupt_string fg (read_file p)))
    entries;
  (* an orphaned temp file from an interrupted atomic write is inert *)
  write_file (Filename.concat dir ".orphan.json.tmp") "garbage";
  let cache = Cache.create ~dir () in
  let warm = Scheduler.run ~cache ~jobs:1 (mk ()) in
  let got =
    List.map (fun o -> A.fingerprint (Scheduler.artifact_exn o)) warm
  in
  expect i "cache" (got = reference)
    "artifacts after cache corruption differ from fault-free run";
  expect i "cache"
    (Cache.quarantined cache = ncorrupt)
    (Printf.sprintf "damaged %d entries, quarantined %d" ncorrupt
       (Cache.quarantined cache));
  expect i "cache"
    (Cache.hits cache = njobs - ncorrupt)
    "intact entries were not re-served";
  (* the corrupt bytes are off the addressed paths and kept for
     post-mortem *)
  let qdir = Filename.concat dir "quarantine" in
  expect i "cache"
    (Sys.file_exists qdir
    && Array.length (Sys.readdir qdir) = ncorrupt)
    "quarantine directory does not hold the damaged entries";
  (* a second warm run over the repaired directory is fully cached *)
  let again = Scheduler.run ~cache:(Cache.create ~dir ()) ~jobs:1 (mk ()) in
  expect i "cache"
    (List.for_all (fun (o : Scheduler.outcome) -> o.Scheduler.cached) again)
    "re-stored entries not served on the next warm run"

let () =
  let rng = Prng.create seed in
  for i = 1 to cases do
    scheduler_case i rng;
    if i mod 10 = 0 then cache_case i rng
  done;
  match !failures with
  | [] ->
      Printf.printf
        "fuzz_engine: %d cases (%d guarded runs; faults: %d raise, %d \
         hang, %d corrupt), seed %#x: OK\n"
        cases !checks fault_counts.(0) fault_counts.(1) fault_counts.(2) seed
  | fs ->
      let fs = List.rev fs in
      Printf.eprintf "fuzz_engine: %d failure(s) in %d cases (seed %#x):\n"
        (List.length fs) cases seed;
      List.iteri
        (fun k (case, what, detail) ->
          if k < 20 then Printf.eprintf "  case %d [%s]: %s\n" case what detail)
        fs;
      if List.length fs > 20 then
        Printf.eprintf "  ... and %d more\n" (List.length fs - 20);
      exit 1
