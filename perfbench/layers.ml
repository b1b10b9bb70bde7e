(* Per-layer spans and counters, recorded from outside each layer by
   timing calls into its public functions.

   Off (the default, and every untraced run) [time] is a plain call. On,
   each call becomes one span on the wall track of an in-memory sink —
   exported at the end as a Chrome trace that opens in Perfetto — and
   bumps the span name's accumulator: calls, busy seconds, work units
   and words allocated. *)

type acc = {
  mutable calls : int;
  mutable busy_s : float;
  mutable work : float;
  mutable alloc_words : float;
}

let sink = Tca_telemetry.Sink.create ()
let active = ref false
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

(* Raw seconds spent with tracing on, and the spin-kernel samples taken
   meanwhile (they normalize the traced figures). *)
let traced_s = ref 0.
let traced_kernels = ref []
let resumed_at = ref 0.

let tracing () = !active

let resume () =
  active := true;
  resumed_at := Host.now ()

let pause () =
  if !active then traced_s := !traced_s +. (Host.now () -. !resumed_at);
  active := false

let empty () = { calls = 0; busy_s = 0.; work = 0.; alloc_words = 0. }

let acc name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
      let a = empty () in
      Hashtbl.replace accs name a;
      a

let find name = Option.value (Hashtbl.find_opt accs name) ~default:(empty ())

(* [time name ~work f] runs [f]; when tracing, records the span and
   credits [work r] units of the result [r] to [name]. *)
let time name ?(work = fun _ -> 0.) f =
  if not !active then f ()
  else begin
    let a0 = Host.alloc_words () in
    let t0 = Tca_telemetry.Timing.now_us () in
    let r = f () in
    let t1 = Tca_telemetry.Timing.now_us () in
    let a1 = Host.alloc_words () in
    let w = work r in
    Tca_telemetry.Sink.span sink ~pid:Tca_telemetry.Sink.track_wall
      ~tid:(Tca_telemetry.Timing.domain_tid ())
      ~cat:"layer" ~ts:t0 ~dur:(t1 -. t0) name
      ~args:[ ("work", Tca_util.Json.Float w) ];
    let a = acc name in
    a.calls <- a.calls + 1;
    a.busy_s <- a.busy_s +. ((t1 -. t0) *. 1e-6);
    a.work <- a.work +. w;
    a.alloc_words <- a.alloc_words +. (a1 -. a0);
    r
  end

let kernel () =
  let k = time "host.spin" Host.kernel in
  if !active then traced_kernels := k :: !traced_kernels;
  k

(* Factor turning traced raw seconds into normalized ones. *)
let factor () =
  match !traced_kernels with
  | [] -> 1.
  | ks -> Host.factor (Tca_util.Stats.median_exn (Array.of_list ks))
