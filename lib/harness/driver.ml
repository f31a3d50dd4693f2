module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Classify = Evs_core.Classify

type protocol = Vsync | Evs

let protocol_to_string = function Vsync -> "vsync" | Evs -> "evs"

type setup = {
  seed : int64;
  n : int;
  protocol : protocol;
  net_config : Net.config;
}

type traffic = { tr_start : float; tr_until : float; tr_gap : float }

type quarantine = {
  q_bound : int;
  q_views : int;
  q_cut : float option;
  q_quarantined : int;
}

type outcome = {
  violations : string list;
  verdicts : Vs_obs.Explain.violation list;
  deliveries : int;
  installs : int;
  distinct_views : int;
  eview_changes : int;
  events : int;
  stable : bool;
  quarantine : quarantine option;
}

(* The vspath straggler verdict of a recorded run, built on request: the
   causal DAG has its message edges only at Full level, and anything below
   yields [None] without touching the entries. *)
let straggler r =
  if Vs_obs.Recorder.full_on r && Vs_obs.Recorder.count r > 0 then
    let cp = Vs_obs.Critpath.of_entries (Vs_obs.Recorder.entries r) in
    Option.map
      (fun (p, c) -> (Vs_obs.Event.proc_to_string p, c))
      cp.Vs_obs.Critpath.straggler
  else None

(* EVS harness checks return plain strings; wrap them so the explain layer
   can still attribute them to a property class. *)
let wrap_verdict property detail =
  { Vs_obs.Explain.property; msg = None; procs = []; vids = []; detail }

(* The stabilization verdict, surfaced both as a typed event on the run's
   stream (so vsexplain can attribute recovery) and as the outcome's
   [quarantine] summary.  [extra] counts EVS-side records the [since]
   filters forgave on top of the oracle's own quarantined violations. *)
let finish_stabilization sim (st : Oracle.stabilization) ~extra =
  let quarantined = List.length st.Oracle.st_quarantined + extra in
  Sim.emit sim
    (Vs_obs.Event.Quarantine
       {
         bound = st.Oracle.st_bound;
         opened = st.Oracle.st_first_fault;
         cut = (match st.Oracle.st_cut with Some c -> c | None -> -1.0);
         views = st.Oracle.st_views;
         quarantined;
       });
  {
    q_bound = st.Oracle.st_bound;
    q_views = st.Oracle.st_views;
    q_cut = st.Oracle.st_cut;
    q_quarantined = quarantined;
  }

(* Section 6 structural invariants over every e-view any process ever
   installed: E_view.validate (subviews partition the membership, sv-sets
   partition the subviews) and well-formedness of the classification verdict
   a majority-quorum application would derive from it. *)
let evs_structural_violations ~since ~n c =
  let quorum ms = 2 * List.length ms > n in
  List.concat_map
    (fun (r : Evs_cluster.eview_record) ->
      let where =
        Printf.sprintf "%s at t=%.3f"
          (Proc_id.to_string r.Evs_cluster.er_proc)
          r.Evs_cluster.er_time
      in
      let ev = r.Evs_cluster.er_eview in
      let mk detail =
        {
          Vs_obs.Explain.property = Vs_obs.Explain.Evs_invariant;
          msg = None;
          procs = [ r.Evs_cluster.er_proc ];
          vids = [ ev.E_view.view.View.id ];
          detail;
        }
      in
      let structural =
        match E_view.validate ev with
        | Ok () -> []
        | Error e ->
            [ mk (Printf.sprintf "e-view invariant (%s): %s in %s" where e
                    (E_view.to_string ev)) ]
      in
      let verdict = Classify.enriched ~eview:ev ~would_serve_all:quorum () in
      let classify =
        if Classify.well_formed verdict then []
        else
          [ mk (Printf.sprintf "classify not well-formed (%s): %s on %s" where
                  (Classify.problem_to_string verdict)
                  (E_view.to_string ev)) ]
      in
      structural @ classify)
    (List.filter
       (fun (r : Evs_cluster.eview_record) -> r.Evs_cluster.er_time >= since)
       (Evs_cluster.eview_records c))

(* What one protocol's cluster contributes to the shared run shape: its
   sim and oracle, how to script and pump it, its stable-view verdict, and
   the checks it adds on top of the Section 2 oracle (EVS: 6.1, 6.3 and the
   structural invariants; plain VS: none), restricted to records at or
   after [since]. *)
type harness = {
  sim : Sim.t;
  oracle : Oracle.t;
  run_script : Faults.script -> unit;
  pump : start:float -> until:float -> mean_gap:float -> unit;
  stable : unit -> bool;
  eview_changes : unit -> int;
  extra_checks : since:float -> Vs_obs.Explain.violation list;
}

let harness ?obs setup =
  let seed = setup.seed and net_config = setup.net_config and n = setup.n in
  match setup.protocol with
  | Vsync ->
      let c = Vsync_cluster.create ~seed ?obs ~net_config ~n () in
      {
        sim = Vsync_cluster.sim c;
        oracle = Vsync_cluster.oracle c;
        run_script = Vsync_cluster.run_script c;
        pump = Vsync_cluster.pump_traffic c;
        stable = (fun () -> Vsync_cluster.stable_view_reached c);
        eview_changes = (fun () -> 0);
        extra_checks = (fun ~since:_ -> []);
      }
  | Evs ->
      let c = Evs_cluster.create ~seed ?obs ~net_config ~n () in
      {
        sim = Evs_cluster.sim c;
        oracle = Evs_cluster.oracle c;
        run_script = Evs_cluster.run_script c;
        pump = Evs_cluster.pump_traffic c;
        stable = (fun () -> Evs_cluster.stable_view_reached c);
        eview_changes = (fun () -> Evs_cluster.eview_changes_total c);
        extra_checks =
          (fun ~since ->
            List.map
              (wrap_verdict Vs_obs.Explain.Evs_total_order)
              (Evs_cluster.check_total_order ~since c)
            @ List.map
                (wrap_verdict Vs_obs.Explain.Evs_structure)
                (Evs_cluster.check_structure ~since c)
            @ evs_structural_violations ~since ~n c);
      }

let run_schedule ?traffic ?obs ?stabilization_bound:bound setup ~script ~until =
  let h = harness ?obs setup in
  h.run_script script;
  (match traffic with
  | Some tr when tr.tr_gap > 0. ->
      h.pump ~start:tr.tr_start ~until:tr.tr_until ~mean_gap:tr.tr_gap
  | Some _ | None -> ());
  ignore (Sim.run ~until h.sim);
  let o = h.oracle in
  let raw = Oracle.all_violations o in
  let verdicts, quarantine =
    match Oracle.stabilization o ?bound raw with
    | None ->
        ( List.map Oracle.to_obs_violation raw
          @ h.extra_checks ~since:neg_infinity,
          None )
    | Some st ->
        (* Extra-check records inside the recovery window are quarantined
           by re-running the checks from the cut; a run that never
           reconverged already carries the synthesized residual, so its
           extra-check noise is forgiven wholesale. *)
        let since =
          match st.Oracle.st_cut with Some cut -> cut | None -> infinity
        in
        let all_extra = h.extra_checks ~since:neg_infinity in
        let kept = h.extra_checks ~since in
        let extra = List.length all_extra - List.length kept in
        ( List.map Oracle.to_obs_violation st.Oracle.st_residual @ kept,
          Some (finish_stabilization h.sim st ~extra) )
  in
  {
    violations = List.map (fun v -> v.Vs_obs.Explain.detail) verdicts;
    verdicts;
    deliveries = Oracle.total_deliveries o;
    installs = Oracle.total_installs o;
    distinct_views = Oracle.distinct_views o;
    eview_changes = h.eview_changes ();
    events = Sim.events_processed h.sim;
    stable = h.stable ();
    quarantine;
  }
