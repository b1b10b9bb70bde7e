type event = {
  name : string;
  cat : string;
  ph : char;
  ts : float;
  dur : float;
  pid : int;
  tid : int;
  args : (string * Tca_util.Json.t) list;
}

type t = {
  sample_interval : int;
  mutable buf : event array;
  mutable len : int;
}

let track_sim = 0
let track_wall = 1

let dummy =
  {
    name = "";
    cat = "";
    ph = 'i';
    ts = 0.0;
    dur = 0.0;
    pid = 0;
    tid = 0;
    args = [];
  }

let create ?(interval = 256) () =
  { sample_interval = max 1 interval; buf = Array.make 1024 dummy; len = 0 }

let interval t = t.sample_interval

let push t ev =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- ev;
  t.len <- t.len + 1

let counter t ?(pid = track_sim) ?(tid = 0) ?(cat = "counter") ~ts name series
    =
  push t
    {
      name;
      cat;
      ph = 'C';
      ts;
      dur = 0.0;
      pid;
      tid;
      args = List.map (fun (k, v) -> (k, Tca_util.Json.Float v)) series;
    }

let span t ?(pid = track_sim) ?(tid = 0) ?(cat = "span") ?(args = []) ~ts ~dur
    name =
  push t { name; cat; ph = 'X'; ts; dur = Float.max 0.0 dur; pid; tid; args }

let instant t ?(pid = track_sim) ?(tid = 0) ?(cat = "instant") ?(args = []) ~ts
    name =
  push t { name; cat; ph = 'i'; ts; dur = 0.0; pid; tid; args }

let events t = Array.to_list (Array.sub t.buf 0 t.len)
let length t = t.len
let clear t = t.len <- 0

(* Fork/join: the multi-domain protocol. A sink is a single-domain
   object, so parallel work gets one fork per task and the owner joins
   them back in a canonical (task-index) order — making the merged
   event sequence identical to what a serial run would have produced,
   because a serial run also finishes task i's events before task
   i+1's. *)

let fork t = create ~interval:t.sample_interval ()

let join ~into child =
  for i = 0 to child.len - 1 do
    push into child.buf.(i)
  done
