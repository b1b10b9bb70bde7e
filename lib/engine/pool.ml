(* One [map] call. Its tasks are claimed by index under [t.mutex]; each
   task stores its own result, so the pool only tracks the counters. *)
type batch = {
  run : int -> unit;  (* runs task [i] and stores its result; never raises *)
  size : int;
  mutable next : int;  (* lowest unclaimed index *)
  mutable pending : int;  (* tasks not yet finished *)
  parent : batch option;  (* the batch whose task called [map] *)
}

type t = {
  mutex : Mutex.t;
  changed : Condition.t;  (* a batch opened or settled, or shutdown began *)
  mutable open_batches : batch list;  (* unclaimed tasks left; newest first *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* The batch whose task this domain is running, if any: the parent of
   any batch that task opens. *)
let current : batch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* [c] is [b] or nested under one of [b]'s tasks. *)
let rec within b c =
  c == b || match c.parent with Some p -> within b p | None -> false

(* Called and returns with [t.mutex] held: claim the next task of [b] and
   run it unlocked, with [b] as this domain's current batch. *)
let run_task t b =
  let i = b.next in
  b.next <- i + 1;
  if b.next = b.size then
    t.open_batches <- List.filter (fun c -> c != b) t.open_batches;
  Mutex.unlock t.mutex;
  let outer = Domain.DLS.get current in
  Domain.DLS.set current (Some b);
  b.run i;
  Domain.DLS.set current outer;
  Mutex.lock t.mutex;
  b.pending <- b.pending - 1;
  if b.pending = 0 then Condition.broadcast t.changed

(* An idle worker takes any open batch, the newest first: a running
   job's fan-out before the jobs that have not started. *)
let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    match t.open_batches with
    | b :: _ ->
        run_task t b;
        loop ()
    | [] ->
        if not t.stop then begin
          Condition.wait t.changed t.mutex;
          loop ()
        end
  in
  loop ();
  Mutex.unlock t.mutex

let create ~workers =
  let t =
    { mutex = Mutex.create (); changed = Condition.create ();
      open_batches = []; stop = false; domains = [] }
  in
  t.domains <-
    List.init (max 0 workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let run i =
      results.(i) <-
        Some
          (try Ok (f xs.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let b =
      { run; size = n; next = 0; pending = n; parent = Domain.DLS.get current }
    in
    Mutex.lock t.mutex;
    t.open_batches <- b :: t.open_batches;
    Condition.broadcast t.changed;
    (* Participate in our own work only: while our batch is unsettled,
       run its tasks and those of batches nested under it, never a
       sibling's; block when none is open. *)
    while b.pending > 0 do
      match List.find_opt (within b) t.open_batches with
      | Some c -> run_task t c
      | None -> Condition.wait t.changed t.mutex
    done;
    Mutex.unlock t.mutex;
    (* All settled; surface the lowest-index failure, as serial would. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | _ -> ())
      results;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error _) | None -> assert false (* settled, no failures *))
      results
  end

let parmap t = { Tca_util.Parmap.run = (fun f xs -> map t f xs) }

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
