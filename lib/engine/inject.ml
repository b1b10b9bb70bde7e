type kind = Tca_util.Faultgen.engine_fault = Raise | Hang | Corrupt_artifact

type plan = (string * kind) list

let parse_kind s =
  match String.lowercase_ascii s with
  | "raise" -> Ok Raise
  | "hang" -> Ok Hang
  | "corrupt" -> Ok Corrupt_artifact
  | s ->
      Error
        (Tca_util.Diag.Invalid
           {
             field = "--inject";
             message =
               Printf.sprintf "unknown fault %S (want raise | hang | corrupt)"
                 s;
           })

let parse_spec spec =
  match String.index_opt spec '=' with
  | None ->
      Error
        (Tca_util.Diag.Invalid
           {
             field = "--inject";
             message =
               Printf.sprintf "expected JOB=FAULT, got %S" spec;
           })
  | Some eq -> (
      let job = String.sub spec 0 eq in
      let fault = String.sub spec (eq + 1) (String.length spec - eq - 1) in
      if job = "" then
        Error
          (Tca_util.Diag.Invalid
             { field = "--inject"; message = "empty job name in spec" })
      else Result.map (fun k -> (job, k)) (parse_kind fault))

exception Injected_raise of string

(* Deterministic wrong-but-valid output for Corrupt_artifact: the
   corruption is seeded from the job name, so the same injection plan
   mangles the same artifact the same way at -j1 and -jN. The result is
   a structurally valid artifact whose every rendered view differs from
   the honest one — exactly the failure a buggy job body produces. *)
let corrupt_artifact name (artifact : Artifact.t) =
  let g = Tca_util.Faultgen.create ~seed:(Hashtbl.hash name) in
  {
    artifact with
    Artifact.title = Tca_util.Faultgen.corrupt_string g artifact.Artifact.title;
    items = Artifact.Note "injected corruption" :: artifact.Artifact.items;
  }

let wrap_job plan (j : Job.t) =
  match List.assoc_opt j.Job.name plan with
  | None -> j
  | Some kind ->
      let body ctx =
        match kind with
        | Raise -> raise (Injected_raise j.Job.name)
        | Hang ->
            (* Cooperative hang: spin on the checkpoint so the deadline
               policy can trip. Bounded as a harness-safety escape hatch —
               an un-deadlined injected hang must not wedge CI forever. *)
            let deadline = Unix.gettimeofday () +. 30.0 in
            while Unix.gettimeofday () < deadline do
              ctx.Job.checkpoint ();
              ignore (Sys.opaque_identity (Digest.string j.Job.name))
            done;
            raise (Injected_raise (j.Job.name ^ ": hang escape hatch"))
        | Corrupt_artifact -> corrupt_artifact j.Job.name (j.Job.body ctx)
      in
      { j with Job.body }

let wrap plan js = List.map (wrap_job plan) js
