type ctx = {
  telemetry : Tca_telemetry.Sink.t option;
  par : Tca_util.Parmap.t;
  quick : bool;
  checkpoint : unit -> unit;
}

type t = {
  name : string;
  title : string;
  params : (string * string) list;
  body : ctx -> Artifact.t;
}

let make ~name ~title ?(params = []) body = { name; title; params; body }

let fingerprint t ~quick =
  let params =
    List.sort (fun (a, _) (b, _) -> String.compare a b) t.params
  in
  String.concat "\n"
    (t.name
     :: Printf.sprintf "quick=%b" quick
     :: List.map (fun (k, v) -> k ^ "=" ^ v) params)

let fingerprint_digest t ~quick =
  Digest.to_hex (Digest.string (fingerprint t ~quick))
