(** Uniform run-one-schedule entry point over both cluster harnesses.

    The schedule explorer (lib/check), the CLI ([vscli campaign] included)
    and the tests all need the same shape of run: boot a cluster on a
    configured network, schedule a fault script and background traffic, run
    to a horizon, then collect every checkable property violation plus the
    run's head-line counters.  {!run_schedule} is the one body of that shape,
    for plain view synchrony ({!Vsync_cluster}) and enriched view synchrony
    ({!Evs_cluster}) alike — both clusters are built on one {!Fleet} — so
    callers never branch on the protocol; the protocols differ only in the
    checks they add.

    EVS runs are checked against strictly more properties: on top of the
    Section 2 oracle checks they get Property 6.1 (total order of e-view
    changes), Property 6.3 (structure preservation), the {!E_view.validate}
    structural invariants of every recorded e-view (subviews partition the
    membership, sv-sets partition the subviews), and well-formedness of the
    {!Classify.enriched} verdict computed from each recorded e-view. *)

type protocol = Vsync | Evs

val protocol_to_string : protocol -> string

type setup = {
  seed : int64;
  n : int;  (** nodes, numbered [0 .. n-1] *)
  protocol : protocol;
  net_config : Vs_net.Net.config;
}

type traffic = {
  tr_start : float;
  tr_until : float;
  tr_gap : float;  (** mean gap between multicasts; [<= 0.] disables *)
}

type quarantine = {
  q_bound : int;  (** recovery bound, in installed views *)
  q_views : int;  (** fresh views installed after the last transient fault *)
  q_cut : float option;
      (** when legality resumed; [None] = never reconverged *)
  q_quarantined : int;  (** violations forgiven as recovery noise *)
}
(** Summary of the stabilization oracle's verdict for a run that contained
    transient {!Faults.Corrupt} actions; also emitted as a typed
    [Quarantine] event on the run's stream. *)

type outcome = {
  violations : string list;
      (** every failed property check, human-readable; [] = clean run.
          Always [List.map (fun v -> v.detail) verdicts]. *)
  verdicts : Vs_obs.Explain.violation list;
      (** the same verdicts, structured: which property, which message,
          which processes, which views — what {!Vs_obs.Explain} consumes *)
  deliveries : int;
  installs : int;
  distinct_views : int;
  eview_changes : int;  (** within-view e-view changes; 0 for plain VS *)
  events : int;         (** simulator events processed *)
  stable : bool;
      (** all live members converged on one final view covering the live
          nodes and none is flushing ({!Fleet.stable_view}) *)
  quarantine : quarantine option;
      (** [Some _] iff the script injected transient corruptions: verdicts
          were filtered through {!Oracle.stabilization} (recovery-window
          violations quarantined, persisting ones relabeled) and, on EVS
          runs, the 6.1/6.3/structural checks re-ran from the cut *)
}

val run_schedule :
  ?traffic:traffic ->
  ?obs:Vs_obs.Recorder.t ->
  ?stabilization_bound:int ->
  setup ->
  script:Faults.script ->
  until:float ->
  outcome
(** Deterministic: the same setup, traffic, script and horizon produce the
    same outcome, bit for bit.  [?obs] receives the run's event stream
    (pass a [Full]-level recorder to capture per-message traffic).
    [?stabilization_bound] overrides {!Oracle.stabilization}'s default
    recovery bound for runs with transient faults. *)

val straggler : Vs_obs.Recorder.t -> (string * float) option
(** The vspath verdict of a recorded run: the process carrying the largest
    summed charge across the run's install critical paths, with that charge
    in seconds.  Builds the causal DAG, once per call, from a [Full]-level
    recording (the DAG needs per-message traffic); [None] below [Full],
    without touching the entries.  A function rather than an outcome field,
    so a run pays for the DAG only when asked and a kept outcome does not
    hold its recording alive. *)
