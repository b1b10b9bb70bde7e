(* The fixed-work loop shared by every workload: timed set-up samples,
   an untimed warm-up pass, a fixed number of timed passes, and in a
   traced run one more pass with the layer spans on. No loop is ever
   bounded by elapsed time. *)

type output = {
  digest : string;
  work : float;  (** work units *)
  own_s : float option;
      (** the op's own time as its layer reports it, when the layer keeps
          its set-up and tear-down out of it; the op is then timed by this
          figure instead of the benchmark's clock *)
}

let ok digest work = Ok { digest; work; own_s = None }

type op = {
  label : string;
  counted : bool;
      (** an op of the op-time distribution; [false] for interleaved
          work that only counts towards throughput *)
  run : unit -> (output, string) result;  (** or why the op failed *)
}

type timed = {
  t_label : string;
  t_counted : bool;
  raw_s : float;
  norm_s : float;
  rss_mb : float;  (** high-water RSS during the op *)
  outcome : (output, string) result;
}

type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** named output checks, all must hold *)
  metrics : (string * float) list;  (** by metric name *)
  info : (string * Tca_util.Json.t) list;
}

let guard f = try f () with e -> Error (Printexc.to_string e)

(* Major collections completed inside traced ops, leaving out those the
   runner forces between ops. *)
let op_major_collections = ref 0
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* One pass: op0, k0, op1, k1, ..., each op normalized by the kernel
   samples taken after it and its neighbours. *)
let run_pass ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let ks = Array.make n 0. in
  let raw = Array.make n 0. and outs = Array.make n (Error "not run") in
  let rss = Array.make n 0. in
  Array.iteri
    (fun i op ->
      (* Start every op with no major-GC debt, so an op pays for its own
         allocation only and not for whichever op ran before it. *)
      Layers.time "runtime.gc" Gc.major;
      Host.reset_peak_rss ();
      let m0 = if Layers.tracing () then major_collections () else 0 in
      let t0 = Host.now () in
      outs.(i) <- guard op.run;
      let dt = Host.now () -. t0 in
      if Layers.tracing () then
        op_major_collections := !op_major_collections + major_collections () - m0;
      raw.(i) <- (match outs.(i) with Ok { own_s = Some s; _ } -> s | _ -> dt);
      rss.(i) <- Host.peak_rss_mb ();
      ks.(i) <- Layers.kernel ())
    ops;
  Array.to_list
    (Array.mapi
       (fun i op ->
         {
           t_label = op.label;
           t_counted = op.counted;
           raw_s = raw.(i);
           norm_s = raw.(i) *. Host.factor (Host.window_kernel ks i);
           rss_mb = rss.(i);
           outcome = outs.(i);
         })
       ops)

(* Median normalized seconds of one set-up, over [samples] samples of
   [reps] back-to-back set-ups each (tiny set-ups repeat so a sample is
   long enough to time), and the last set-up's value. *)
let time_setup ~samples ~reps setup =
  let last = ref None in
  let per =
    Array.init samples (fun _ ->
        (* drop the previous sample's inputs, so the heap holds one set *)
        last := None;
        Gc.full_major ();
        let t0 = Host.now () in
        for _ = 1 to reps do
          last := Some (setup ())
        done;
        let dt = (Host.now () -. t0) /. float_of_int reps in
        (* the median of three kernel samples, as one is noisy *)
        let k = Tca_util.Stats.median_exn (Array.init 3 (fun _ -> Host.kernel ())) in
        dt *. Host.factor k)
  in
  (Tca_util.Stats.median_exn per, Option.get !last)

(* --- summaries ------------------------------------------------------- *)

let is_ok t = Result.is_ok t.outcome

let op_times timed =
  Array.of_list
    (List.filter_map
       (fun t ->
         if not t.t_counted then None
         else if is_ok t then Some t.norm_s
         else Some infinity (* a failed op misses every limit *))
       timed)

let work_of t = match t.outcome with Ok o -> o.work | Error _ -> 0.

(* End-to-end figures of the timed passes. *)
let e2e ~setup_s timed =
  let times = op_times timed in
  let rss = Array.of_list (List.filter_map (fun t -> if t.t_counted then Some t.rss_mb else None) timed) in
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0. timed in
  let tail, tail_pct = Host.tail times in
  ( [
      ("throughput_per_s", sum work_of /. sum (fun t -> t.norm_s));
      ("op_p50_ms", 1000. *. Host.median_hd times);
      ("op_tail_ms", 1000. *. tail);
      ("setup_s", setup_s);
      ("peak_rss_mb", Tca_util.Stats.median_exn rss);
    ],
    [
      ("process_peak_rss_mb", Tca_util.Json.Float (Array.fold_left Float.max 0. rss));
      ("op_samples", Tca_util.Json.Int (Array.length times));
      ("op_tail_percentile", Tca_util.Json.Float tail_pct);
      ("raw_throughput_per_s", Tca_util.Json.Float (sum work_of /. sum (fun t -> t.raw_s)));
    ] )

(* Output checks: every op succeeded; every timed pass reproduced the
   warm-up pass's digests; and, where the benchmark pins them for this
   seed, the warm-up digests equal the pins. *)
let check_digests ~pins ~warm passes =
  let digest t = match t.outcome with Ok o -> Some o.digest | Error _ -> None in
  let warm_d = List.map (fun t -> (t.t_label, digest t)) warm in
  let repeat =
    List.for_all
      (fun pass -> List.map (fun t -> (t.t_label, digest t)) pass = warm_d)
      passes
  in
  let pinned =
    match pins with
    | None -> true
    | Some pins ->
        List.length pins = List.length warm_d
        && List.for_all
             (fun (l, d) -> List.assoc_opt l pins = Some (Option.value d ~default:""))
             warm_d
  in
  [
    ("ops_ok", List.for_all (List.for_all is_ok) (warm :: passes));
    ("digests_repeat", repeat);
    ("digests_pinned", pinned);
  ]

let failures passes =
  let all = List.concat passes in
  (List.length all, List.length (List.filter (fun t -> not (is_ok t)) all))

(* Minor words allocated over a traced section. *)
let minor_delta f =
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let r = f () in
  (r, (Gc.quick_stat ()).Gc.minor_words -. w0)

let traced_common ~ops ~minor_words ~untraced_s ~traced_s =
  [
    ("gc.minor_words_per_op", minor_words /. float_of_int (max 1 ops));
    ("gc.major_collections", float_of_int !op_major_collections);
    ("gc.top_heap_mb", Host.top_heap_mb ());
    ("trace.overhead_pct", 100. *. ((traced_s /. untraced_s) -. 1.));
  ]

type 'env spec = {
  setup : unit -> 'env;
  setup_reps : int;  (** set-ups per timed sample *)
  ops : 'env -> op list;  (** one pass, fixed *)
  pins : (string * string) list option;
  post : 'env -> (string * bool) list;
      (** further output checks, run after the timed passes *)
  model_error : 'env -> float;  (** runs after the timed passes *)
  extras : 'env -> (string * float) list;
      (** workload-specific figures of the traced pass *)
}

let pass_norm timed = List.fold_left (fun a t -> a +. t.norm_s) 0. timed

let run_ops spec ~passes ~trace =
  if trace then begin
    Layers.resume ();
    let env = spec.setup () in
    Layers.pause ();
    let warm = run_pass (spec.ops env) in
    let untraced = run_pass (spec.ops env) in
    Layers.resume ();
    let traced, minor_words = minor_delta (fun () -> run_pass (spec.ops env)) in
    let post = spec.post env in
    Layers.pause ();
    let passes = [ untraced; traced ] in
    let attempted, failed = failures passes in
    let ops = List.length (List.filter (fun t -> t.t_counted) traced) in
    let metrics =
      traced_common ~ops ~minor_words ~untraced_s:(pass_norm untraced)
        ~traced_s:(pass_norm traced)
      @ [
          ( "host.raw_throughput_per_s",
            List.fold_left (fun a t -> a +. work_of t) 0. untraced
            /. List.fold_left (fun a t -> a +. t.raw_s) 0. untraced );
        ]
      @ spec.extras env
    in
    {
      attempted;
      failed;
      checks = check_digests ~pins:spec.pins ~warm passes @ post;
      metrics;
      info = [];
    }
  end
  else begin
    (* a set-up too short to time alone is cheap to sample often *)
    let samples = if spec.setup_reps = 1 then 5 else 21 in
    let setup_s, env = time_setup ~samples ~reps:spec.setup_reps spec.setup in
    let warm = run_pass (spec.ops env) in
    let timed = List.init passes (fun _ -> run_pass (spec.ops env)) in
    let attempted, failed = failures timed in
    let metrics, info = e2e ~setup_s (List.concat timed) in
    let post = spec.post env in
    {
      attempted;
      failed;
      checks = check_digests ~pins:spec.pins ~warm timed @ post;
      metrics =
        metrics
        @ [ ("model_error_median_pct", spec.model_error env) ];
      info;
    }
  end
