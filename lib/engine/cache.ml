type t = {
  dir : string option;
  mem : (string, Artifact.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable quarantined : int;
}

(* v2: the on-disk entry format gained the checksum header. Old-salt
   entries are simply never addressed (different keys), so a v1 cache
   directory warms up from scratch instead of tripping quarantine. *)
let version_salt = "tca-engine-v2"

(* First line of every entry file: magic, space, MD5 hex of the payload
   (everything after the newline). A file that lost its tail in a crash
   or had bits flipped at rest can no longer checksum-match, whatever
   the damage does to the JSON inside. *)
let entry_magic = "tca-cache-1"

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
  | _ -> ());
  {
    dir;
    mem = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    quarantined = 0;
  }

let dir t = t.dir

let key _t (job : Job.t) ~quick =
  Digest.to_hex
    (Digest.string (version_salt ^ "\x00" ^ Job.fingerprint job ~quick))

let path dir k = Filename.concat dir (k ^ ".json")

let read_file p =
  try
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

let encode artifact =
  let payload = Tca_util.Json.to_string (Artifact.serialize artifact) in
  Printf.sprintf "%s %s\n%s" entry_magic (Digest.to_hex (Digest.string payload))
    payload

(* Total: any deviation — missing header, checksum mismatch, unparseable
   or shape-invalid payload — is [None], never an exception. *)
let decode contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some nl -> (
      let header = String.sub contents 0 nl in
      let payload =
        String.sub contents (nl + 1) (String.length contents - nl - 1)
      in
      match String.split_on_char ' ' header with
      | [ magic; checksum ]
        when magic = entry_magic
             && checksum = Digest.to_hex (Digest.string payload) -> (
          match Tca_util.Json.parse payload with
          | Error _ -> None
          | Ok json -> (
              match Artifact.deserialize json with
              | Error _ -> None
              | Ok artifact -> Some artifact))
      | _ -> None)

(* A corrupt entry is evidence, not garbage: move it aside so a warm run
   can never re-read it, but keep the bytes for post-mortem. Every
   failure path falls back to deletion so the poisoned file is gone from
   the addressed path no matter what. *)
let quarantine t d file =
  let src = Filename.concat d file in
  let qdir = Filename.concat d "quarantine" in
  (try
     if not (Sys.file_exists qdir) then Unix.mkdir qdir 0o755;
     Sys.rename src (Filename.concat qdir file)
   with Sys_error _ | Unix.Unix_error _ -> (
     try Sys.remove src with Sys_error _ -> ()));
  t.quarantined <- t.quarantined + 1

let disk_find t k =
  match t.dir with
  | None -> None
  | Some d -> (
      let p = path d k in
      match read_file p with
      | None -> None
      | Some contents -> (
          match decode contents with
          | Some artifact -> Some artifact
          | None ->
              quarantine t d (k ^ ".json");
              None))

let find t k =
  match Hashtbl.find_opt t.mem k with
  | Some artifact ->
      t.hits <- t.hits + 1;
      Some artifact
  | None -> (
      match disk_find t k with
      | Some artifact ->
          Hashtbl.replace t.mem k artifact;
          t.hits <- t.hits + 1;
          Some artifact
      | None ->
          t.misses <- t.misses + 1;
          None)

let store t k artifact =
  Hashtbl.replace t.mem k artifact;
  match t.dir with
  | None -> ()
  | Some d -> (
      match Tca_util.Atomic_file.write (path d k) (encode artifact) with
      | Ok () -> ()
      | Error _ -> () (* the cache is an accelerator, not a store of record *))

let hits t = t.hits
let misses t = t.misses
let quarantined t = t.quarantined
