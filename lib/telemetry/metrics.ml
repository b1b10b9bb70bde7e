module Json = Tca_util.Json

(* 1-2-5 ladder over ten decades: fits wall-clock seconds from a
   microsecond up to 5000 s. *)
let bounds =
  Array.concat
    (List.init 10 (fun d ->
         let scale = 10.0 ** float_of_int (d - 6) in
         [| scale; 2.0 *. scale; 5.0 *. scale |]))

type histogram = {
  hits : int array;  (* per-bucket, last slot = overflow *)
  mutable sum : float;
}

type t = {
  counters : (string, int) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let add t name v =
  Hashtbl.replace t.counters name
    (v + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = { hits = Array.make (Array.length bounds + 1) 0; sum = 0.0 } in
        Hashtbl.replace t.histograms name h;
        h
  in
  let rec bucket i =
    if i >= Array.length bounds || v <= bounds.(i) then i else bucket (i + 1)
  in
  let i = bucket 0 in
  h.hits.(i) <- h.hits.(i) + 1;
  h.sum <- h.sum +. v

let arg conv (e : Sink.event) key =
  Option.bind (List.assoc_opt key e.Sink.args) conv

let int_arg = arg Json.to_int_opt
let float_arg = arg Json.to_float_opt

let wall_span t (e : Sink.event) =
  add t (e.Sink.name ^ ".calls") 1;
  observe t (e.Sink.name ^ ".seconds") (e.Sink.dur /. 1e6);
  match e.Sink.name with
  | "task.run" ->
      Option.iter
        (fun us -> observe t "task.wait.seconds" (us /. 1e6))
        (float_arg e "wait_us");
      List.iter
        (fun (k, v) ->
          match (String.starts_with ~prefix:"gc_" k, Json.to_int_opt v) with
          | true, Some n ->
              add t ("task.gc." ^ String.sub k 3 (String.length k - 3)) n
          | _ -> ())
        e.Sink.args
  | "grid.compute" -> (
      match (int_arg e "rows", int_arg e "cols") with
      | Some rows, Some cols -> add t "grid.cells" (rows * cols)
      | _ -> ())
  | _ -> ()

let sim_run t (e : Sink.event) =
  let value key = Option.value ~default:0 (int_arg e key) in
  add t "sim.runs" 1;
  add t "sim.cycles" (int_of_float e.Sink.dur);
  add t "sim.committed" (value "committed");
  add t "sim.accel_invocations" (value "accel_invocations")

let of_events events =
  let t = { counters = Hashtbl.create 64; histograms = Hashtbl.create 64 } in
  List.iter
    (fun (e : Sink.event) ->
      if e.Sink.ph = 'X' then
        if e.Sink.pid = Sink.track_wall then wall_span t e
        else if e.Sink.pid = Sink.track_sim && e.Sink.name = "sim.run" then
          sim_run t e)
    events;
  t

let of_sink sink = of_events (Sink.events sink)

let counter_value t name =
  Option.value ~default:0 (Hashtbl.find_opt t.counters name)

let sorted tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_json h =
  let cum = Array.copy h.hits in
  for i = 1 to Array.length cum - 1 do
    cum.(i) <- cum.(i - 1) + cum.(i)
  done;
  let bucket i =
    let le = if i < Array.length bounds then bounds.(i) else infinity in
    Json.Obj [ ("le", Json.Float le); ("count", Json.Int cum.(i)) ]
  in
  Json.Obj
    [
      ("count", Json.Int cum.(Array.length cum - 1));
      ("sum", Json.Float h.sum);
      ("buckets", Json.List (List.init (Array.length cum) bucket));
    ]

let to_json t =
  Json.Obj
    [
      ("counters", Json.Obj (sorted t.counters (fun n -> Json.Int n)));
      ("histograms", Json.Obj (sorted t.histograms histogram_json));
    ]
