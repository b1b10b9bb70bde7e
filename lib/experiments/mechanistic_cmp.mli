(** Extension X4: validate the Eyerman-style mechanistic CPI model
    against the cycle-level simulator, closing the loop the paper opens
    (its accelerator model takes "program IPC" as an input measured by
    simulation; with {!Tca_interval.Mechanistic} that input itself comes
    from event counts, so the whole design flow is simulator-free). *)

type row = {
  label : string;
  predicted_ipc : float;
  simulated_ipc : float;
  error_pct : float;
}

val run :
  ?telemetry:Tca_telemetry.Sink.t ->
  ?par:Tca_util.Parmap.t ->
  unit -> row list
(** Several application-code mixes (branch-heavy, chain-limited,
    memory-bound, balanced) generated by {!Tca_workloads.Codegen} with
    known event rates; the mechanistic model sees only those rates.
    [?par] evaluates the cases concurrently with identical rows and
    merged trace. *)

val artifact : row list -> Tca_engine.Artifact.t
