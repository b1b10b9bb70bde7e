(* Host clock, the fixed spin kernel that normalizes host speed, and the
   process figures every workload reports.

   A shared VM drifts in speed by tens of percent over minutes, so a raw
   interval says as much about the neighbours as about the code. The
   benchmark therefore times a fixed spin kernel next to every timed
   interval and reports [measured * nominal_kernel_s / kernel_measured]:
   the interval as it would read on a host where the kernel takes exactly
   [nominal_kernel_s]. *)

let now () = Tca_telemetry.Timing.now_us () *. 1e-6

(* The kernel's table: 1 MiB of ints, which fits the core's private L2
   (2 MiB on the reference host). A Bigarray, so it sits off the OCaml
   heap, where every major collection would read it. *)
let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 17) in
  Bigarray.Array1.fill t 1;
  t

let kernel_mb = float_of_int (Bigarray.Array1.dim table * 8) /. 1048576.

let xorshift v =
  let v = v lxor (v lsl 13) in
  let v = v lxor (v lsr 7) in
  v lxor (v lsl 17)

(* Two xorshift-indexed read-modify-write walks over the table, always
   from the same start; fixed work, no allocation. [walk] reads and
   writes inline. [walk_calls] leaves the element kind abstract, so each
   read and write is a call into the generic Bigarray accessors. *)
let walk iters =
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to iters do
    x := xorshift !x;
    let i = !x land mask in
    let y = Bigarray.Array1.unsafe_get table i + !acc in
    Bigarray.Array1.unsafe_set table i y;
    acc := y land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

let walk_calls (t : (int, _, Bigarray.c_layout) Bigarray.Array1.t) iters =
  let mask = Bigarray.Array1.dim t - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to iters do
    x := xorshift !x;
    let i = !x land mask in
    let y = Bigarray.Array1.unsafe_get t i + !acc in
    Bigarray.Array1.unsafe_set t i y;
    acc := y land 0xFFFF
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's time must not depend on the code under test, or cutting
   an op's memory traffic would change the samples after the op and so
   the op's normalized time. A walk over a table larger than the private
   cache does depend on it: on the reference host a 64 MiB walk read
   0.6 ms after small ops and 1.7 ms after simulator ops in one process.
   So the table fits the L2, an untimed walk loads it whatever ran
   before, and the two walks after it are timed together.

   Each walk alone tracks only some ops: the host's slow phases slowed
   the call-heavy walk and the simulator and model grid alike, and the
   inline walk and the analysis and engine jobs alike. Their sum, the
   two taking about the same time, tracked all four (README.md). *)
let spin () =
  walk 50_000;
  let t0 = now () in
  walk_calls table 100_000;
  walk 300_000;
  now () -. t0

(* The kernel's time on the reference host (a 2-vCPU x86-64 VM). Only
   the ratio matters: normalized figures read as reference-host
   seconds. *)
let nominal_kernel_s = 0.0030

(* Every kernel sample taken in the process, newest first, so a traced
   section can normalize by the samples taken inside it. *)
let samples = ref []

let kernel () =
  let dt = spin () in
  samples := dt :: !samples;
  dt

(* The highest percentile with at least ten samples beyond it: the
   nearest-rank value with exactly ten larger samples, and the
   percentile that rank stands for. Below eleven samples no percentile
   qualifies, and the maximum (percentile 100) stands in. *)
let tail a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  let k = if n < 11 then n - 1 else n - 11 in
  (s.(k), 100. *. float_of_int (k + 1) /. float_of_int n)

(* The Harrell-Davis estimate of the median: a weighted mean of all
   order statistics, rank i weighing the Beta((n+1)/2, (n+1)/2) mass on
   [(i-1)/n, i/n] (midpoint rule, 64 steps per rank). The sample median
   of a mix of ops of very different sizes jumps whenever two ops near
   the middle trade places: in suite-quick the middle jobs are 20-25%
   apart, and the sample median moved by 22% between runs. An infinite
   (failed) op makes it infinite. *)
let median_hd a =
  if Array.exists (fun x -> x = infinity) a then infinity
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let n = Array.length s and steps = 64 in
    let c = float_of_int (n + 1) /. 2. -. 1. in
    let w =
      Array.init n (fun i ->
          let acc = ref 0. in
          for j = 0 to steps - 1 do
            let x = (float_of_int i +. ((float_of_int j +. 0.5) /. float_of_int steps)) /. float_of_int n in
            acc := !acc +. exp (c *. (log x +. log1p (-.x)))
          done;
          !acc)
    in
    let total = Array.fold_left ( +. ) 0. w in
    let sum = ref 0. in
    Array.iteri (fun i x -> sum := !sum +. (w.(i) *. x)) s;
    !sum /. total
  end

let factor kernel_s = nominal_kernel_s /. kernel_s

(* Normalizing kernel for interval [i] of a sequence timed as
   op0, k0, op1, k1, ...: the median of the kernel samples within three
   positions of the interval, which tracks drift while ignoring a single
   preempted sample. *)
let window_kernel ks i =
  let n = Array.length ks in
  let lo = max 0 (i - 3) and hi = min (n - 1) (i + 3) in
  Tca_util.Stats.median_exn (Array.sub ks lo (hi - lo + 1))

(* --- process figures ------------------------------------------------- *)

let status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = key ->
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                Scanf.sscanf_opt (String.trim v) "%d" Fun.id
            | _ -> go ())
      in
      let r = go () in
      close_in ic;
      r

let top_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

(* High-water RSS of the program since the last [reset_peak_rss]: the
   process's, less the kernel table. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> (float_of_int kb /. 1024.) -. kernel_mb
  | None -> top_heap_mb ()

(* Lowers the process's high-water RSS to its current RSS (Linux 4.0 and
   later; elsewhere the high-water mark stays the process's). *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
