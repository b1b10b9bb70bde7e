(* Kernel probe: does a kernel sample depend on the op that ran before it?

     bench.exe --kernel-probe N

   Runs N rounds. A round takes five samples after each kind of op in
   turn (after a forced [Gc.major ()], as in a timed pass): no op, a
   model grid op and a heap baseline [Pipeline.run]. Five in a row let a
   cache state the op leaves behind show, and short rounds keep the
   host's drift, which moves every sample of a round alike, out of the
   comparison. Prints per kind the median op time and kernel sample, and
   the median over rounds of the kind's round median over the no-op
   round median, with its quartiles; ratios near 1 mean the kernel does
   not depend on the op. *)

let per_round = 5

let run rounds =
  let e = Inputs.generate_raw ~seed:Pins.default_seed "heap" in
  Inputs.decode e;
  let trace = e.Inputs.pair.Tca_workloads.Meta.baseline in
  let m = W_model.setup () in
  let kinds =
    [|
      ("none", ignore);
      ("grid", fun () -> ignore (W_model.grid m Tca_model.Presets.hp_core Tca_model.Mode.L_T ()));
      ("simulator", fun () -> ignore (Tca_uarch.Pipeline.run Inputs.cfg trace));
    |]
  in
  let med a = Tca_util.Stats.median_exn a in
  let nk = Array.length kinds in
  (* ops.(k).(r), ks.(k).(r): the samples of kind k in round r *)
  let ops = Array.init nk (fun _ -> Array.make_matrix rounds per_round 0.) in
  let ks = Array.init nk (fun _ -> Array.make_matrix rounds per_round 0.) in
  for r = 0 to rounds - 1 do
    for j = 0 to nk - 1 do
      let k = (r + j) mod nk in
      let _, op = kinds.(k) in
      for s = 0 to per_round - 1 do
        Gc.major ();
        let t0 = Host.now () in
        op ();
        ops.(k).(r).(s) <- Host.now () -. t0;
        ks.(k).(r).(s) <- Host.spin ()
      done
    done
  done;
  let all a = med (Array.concat (Array.to_list a)) in
  Array.iteri
    (fun k (name, _) ->
      let ratios = Array.init rounds (fun r -> med ks.(k).(r) /. med ks.(0).(r)) in
      let p = Tca_util.Stats.percentile_exn ratios in
      Printf.printf "%-9s op %8.3f ms  kernel %6.3f ms  vs none %.3f [%.3f, %.3f]\n" name
        (1000. *. all ops.(k))
        (1000. *. all ks.(k))
        (p 50.) (p 25.) (p 75.))
    kinds
