(* Self-time profiler over the wall-clock span events of a sink.

   The input is the same data the Chrome-trace export renders: 'X'
   spans on {!Sink.track_wall}, one lane ([tid]) per recording domain.
   Within a lane, spans produced by nested {!Timing.with_span} calls
   nest perfectly in time, so a single stack sweep recovers the call
   tree and each span's *self* time — its duration minus the time
   covered by its direct children. Self times are what make a "where
   did the wall-clock go" table honest: a driver span that spends 95%
   of its time inside [sim.step] children contributes only its 5% of
   glue to the driver row.

   Attribution: every span name maps to one of six fixed components
   (decode / sim / fork_join / cache / scheduler / other). The
   component table is computed over the *owner lane* — the lane
   holding the [profile.total] span that `tca profile` wraps around
   the whole run. Because that lane's spans nest exactly, the six
   buckets sum to the total span's duration: 100% of the run's
   wall-clock is attributed, by construction. Worker-lane time shows
   up separately in the per-lane and self-time tables (their CPU
   seconds overlap the owner's wall seconds).

   Determinism: for a fixed event list the report is byte-identical —
   all sorts have total tie-breaks and the component key set is fixed
   — which is what the schema-stability test pins. *)

type row = { name : string; calls : int; total_s : float; self_s : float }
type lane = { tid : int; busy_s : float; spans : int; tasks : int }

type t = {
  wall_s : float;
  cpu_s : float;
  owner_tid : int;
  lanes : lane list;
  rows : row list;
  components : (string * float) list;
  attributed_s : float;
  gc : (string * int) list;
}

let total_span_name = "profile.total"

let component_names =
  [ "decode"; "sim"; "fork_join"; "cache"; "scheduler"; "other" ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let component_of name =
  (* [task.run]'s self time is the job body's own compute — everything
     the body did not wrap in a named span — so it lands in "other",
     not in scheduler overhead. *)
  if name = total_span_name || name = "task.run" then "other"
  else if has_prefix ~prefix:"sim.decode" name then "decode"
  else if has_prefix ~prefix:"sim." name then "sim"
  else if has_prefix ~prefix:"telemetry." name || has_prefix ~prefix:"sink." name
  then "fork_join"
  else if has_prefix ~prefix:"cache." name then "cache"
  else if
    has_prefix ~prefix:"sched." name
    || has_prefix ~prefix:"pool." name
    || has_prefix ~prefix:"task." name
  then "scheduler"
  else "other"

(* One span being swept: bounds plus the accumulated direct-child time. *)
type node = {
  n_name : string;
  n_ts : float;
  n_end : float;
  n_dur : float;
  mutable n_child : float;
}

let gc_keys =
  [
    "minor_words"; "promoted_words"; "major_words"; "minor_collections";
    "major_collections";
  ]

let of_events events =
  let spans =
    List.filter
      (fun (e : Sink.event) ->
        e.Sink.ph = 'X' && e.Sink.pid = Sink.track_wall)
      events
  in
  (* Group by lane (tid), keeping a deterministic lane order. *)
  let lane_tbl : (int, Sink.event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Sink.event) ->
      match Hashtbl.find_opt lane_tbl e.Sink.tid with
      | Some l -> l := e :: !l
      | None -> Hashtbl.replace lane_tbl e.Sink.tid (ref [ e ]))
    spans;
  let tids =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) lane_tbl []
    |> List.sort compare
  in
  let row_tbl : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
  let add_row name ~total ~self =
    match Hashtbl.find_opt row_tbl name with
    | Some r ->
        r :=
          {
            !r with
            calls = !r.calls + 1;
            total_s = !r.total_s +. total;
            self_s = !r.self_s +. self;
          }
    | None ->
        Hashtbl.replace row_tbl name
          (ref { name; calls = 1; total_s = total; self_s = self })
  in
  let comp_tbl : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let add_comp ~owner name self =
    if owner then begin
      let c = component_of name in
      Hashtbl.replace comp_tbl c
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt comp_tbl c))
    end
  in
  let total_span = ref None in
  (* Find the owner lane first: the one carrying [profile.total]. *)
  let owner_tid =
    let with_total =
      List.filter_map
        (fun tid ->
          let l = !(Hashtbl.find lane_tbl tid) in
          if List.exists (fun (e : Sink.event) -> e.Sink.name = total_span_name) l
          then Some tid
          else None)
        tids
    in
    match with_total with tid :: _ -> tid | [] -> (
      match tids with tid :: _ -> tid | [] -> 0)
  in
  let lanes =
    List.map
      (fun tid ->
        let evs = !(Hashtbl.find lane_tbl tid) in
        (* Parent before child: earlier start first; same start, longer
           first; a final name tie-break keeps the order total. *)
        let sorted =
          List.sort
            (fun (a : Sink.event) (b : Sink.event) ->
              match compare a.Sink.ts b.Sink.ts with
              | 0 -> (
                  match compare b.Sink.dur a.Sink.dur with
                  | 0 -> String.compare a.Sink.name b.Sink.name
                  | c -> c)
              | c -> c)
            evs
        in
        let owner = tid = owner_tid in
        let stack = ref [] in
        let busy = ref 0.0 in
        let tasks = ref 0 in
        let settle n =
          let self = Float.max 0.0 (n.n_dur -. n.n_child) /. 1e6 in
          add_row n.n_name ~total:(n.n_dur /. 1e6) ~self;
          add_comp ~owner n.n_name self
        in
        List.iter
          (fun (e : Sink.event) ->
            if e.Sink.name = "task.run" then incr tasks;
            if e.Sink.name = total_span_name && owner then total_span := Some e;
            let rec pop () =
              match !stack with
              | top :: rest when top.n_end <= e.Sink.ts ->
                  settle top;
                  stack := rest;
                  pop ()
              | _ -> ()
            in
            pop ();
            let n =
              {
                n_name = e.Sink.name;
                n_ts = e.Sink.ts;
                n_end = e.Sink.ts +. e.Sink.dur;
                n_dur = e.Sink.dur;
                n_child = 0.0;
              }
            in
            (match !stack with
            | top :: _ ->
                (* Clamp to the parent's extent so a straggler that
                   crosses its parent's end cannot drive self negative. *)
                top.n_child <-
                  top.n_child +. Float.min n.n_dur (top.n_end -. n.n_ts)
            | [] -> busy := !busy +. (n.n_dur /. 1e6));
            stack := n :: !stack)
          sorted;
        List.iter settle !stack;
        { tid; busy_s = !busy; spans = List.length evs; tasks = !tasks })
      tids
  in
  let wall_s =
    match !total_span with
    | Some e -> e.Sink.dur /. 1e6
    | None -> (
        match spans with
        | [] -> 0.0
        | _ ->
            let lo =
              List.fold_left
                (fun acc (e : Sink.event) -> Float.min acc e.Sink.ts)
                infinity spans
            and hi =
              List.fold_left
                (fun acc (e : Sink.event) ->
                  Float.max acc (e.Sink.ts +. e.Sink.dur))
                neg_infinity spans
            in
            (hi -. lo) /. 1e6)
  in
  let cpu_s = List.fold_left (fun acc l -> acc +. l.busy_s) 0.0 lanes in
  let components =
    List.map
      (fun c -> (c, Option.value ~default:0.0 (Hashtbl.find_opt comp_tbl c)))
      component_names
  in
  let attributed_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 components in
  let rows =
    Hashtbl.fold (fun _ r acc -> !r :: acc) row_tbl []
    |> List.sort (fun a b ->
           match compare b.self_s a.self_s with
           | 0 -> String.compare a.name b.name
           | c -> c)
  in
  let gc =
    let m = Metrics.of_events spans in
    if Metrics.counter_value m "task.run.calls" = 0 then []
    else
      List.map (fun k -> (k, Metrics.counter_value m ("task.gc." ^ k))) gc_keys
  in
  { wall_s; cpu_s; owner_tid; lanes; rows; components; attributed_s; gc }

let of_sink sink = of_events (Sink.events sink)

let attributed_fraction t =
  if t.wall_s > 0.0 then t.attributed_s /. t.wall_s else 1.0

let to_json t =
  let open Tca_util.Json in
  Obj
    [
      ("schema", String "tca-profile-1");
      ("wall_s", Float t.wall_s);
      ("cpu_s", Float t.cpu_s);
      ("owner_tid", Int t.owner_tid);
      ("attributed_s", Float t.attributed_s);
      ("attributed_fraction", Float (attributed_fraction t));
      ("components", Obj (List.map (fun (k, v) -> (k, Float v)) t.components));
      ( "lanes",
        List
          (List.map
             (fun l ->
               Obj
                 [
                   ("tid", Int l.tid);
                   ("busy_s", Float l.busy_s);
                   ("spans", Int l.spans);
                   ("tasks", Int l.tasks);
                 ])
             t.lanes) );
      ( "self_time",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("name", String r.name);
                   ("calls", Int r.calls);
                   ("total_s", Float r.total_s);
                   ("self_s", Float r.self_s);
                 ])
             t.rows) );
      ("gc", Obj (List.map (fun (k, v) -> (k, Int v)) t.gc));
    ]

let pp fmt t =
  Format.fprintf fmt
    "profile: wall %.3f s, cpu %.3f s across %d domain lane(s)@." t.wall_s
    t.cpu_s (List.length t.lanes);
  Format.fprintf fmt
    "component attribution (owner lane, %.1f%% of wall attributed):@."
    (100.0 *. attributed_fraction t);
  List.iter
    (fun (c, s) ->
      Format.fprintf fmt "  %-10s %10.3f s  %5.1f%%@." c s
        (100.0 *. s /. Float.max 1e-9 t.attributed_s))
    t.components;
  if List.length t.lanes > 1 then begin
    Format.fprintf fmt "@.lanes:@.";
    List.iter
      (fun l ->
        Format.fprintf fmt
          "  domain %-4d busy %8.3f s  %5d span(s)  %4d task(s)%s@." l.tid
          l.busy_s l.spans l.tasks
          (if l.tid = t.owner_tid then "  [owner]" else ""))
      t.lanes
  end;
  Format.fprintf fmt "@.self time (all lanes):@.";
  Format.fprintf fmt "  %-28s %8s %12s %12s@." "span" "calls" "total s"
    "self s";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-28s %8d %12.4f %12.4f@." r.name r.calls
        r.total_s r.self_s)
    t.rows;
  match t.gc with
  | [] -> ()
  | gc ->
      Format.fprintf fmt "@.gc (summed over tasks):@.";
      List.iter
        (fun (k, v) -> Format.fprintf fmt "  %-20s %d@." k v)
        gc
