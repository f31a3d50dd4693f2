module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

(* What every process saw, newest first, and the within-view e-view change
   count: written by the endpoints' callbacks as the fleet boots them. *)
type log = {
  mutable rev_records : eview_record list;
  mutable echanges : int;
}

type t = {
  sim : Sim.t;
  net : (Oracle.msg_id, unit) Evs.net;
  oracle : Oracle.t;
  rng : Rng.t;
  log : log;
  fleet : (Oracle.msg_id, unit) Evs.t Fleet.t;
}

let sim t = t.sim

let oracle t = t.oracle

let net_stats t = Net.stats t.net

let cause_string = function
  | Evs.View_change -> "view"
  | Evs.Svset_merged id -> "svset-merge " ^ E_view.Svset_id.to_string id
  | Evs.Subview_merged id -> "subview-merge " ^ E_view.Subview_id.to_string id

let create ?(seed = 1L) ?obs ?(net_config = Net.default_config)
    ?(config = Endpoint.default_config) ~n () =
  let sim = Sim.create ~seed ?obs () in
  let net : (Oracle.msg_id, unit) Evs.net =
    Evs.make_net
      ~ident:(fun (m : Oracle.msg_id) -> Some (Oracle.msg_id_to_obs m))
      sim net_config
  in
  let oracle = Oracle.create () in
  let rng = Sim.fork_rng sim in
  let log = { rev_records = []; echanges = 0 } in
  let universe = List.init n (fun i -> i) in
  let boot me =
    let prior = ref (View.Id.initial me) in
    let handle = ref None in
    let callbacks =
      {
        Evs.on_eview =
          (fun ev ->
            log.rev_records <-
              {
                er_proc = me;
                er_time = Sim.now sim;
                er_eview = ev.Evs.eview;
                er_cause = cause_string ev.Evs.cause;
              }
              :: log.rev_records;
            match ev.Evs.cause with
            | Evs.View_change ->
                Oracle.record_install oracle ~proc:me
                  ~view:ev.Evs.eview.E_view.view ~prior:!prior
                  ~time:(Sim.now sim);
                prior := ev.Evs.eview.E_view.view.View.id
            | Evs.Svset_merged _ | Evs.Subview_merged _ ->
                log.echanges <- log.echanges + 1);
        on_message =
          (fun ~sender:_ msg_id ->
            match !handle with
            | Some e ->
                Oracle.record_delivery oracle ~proc:me
                  ~vid:(Evs.view e).View.id msg_id ~time:(Sim.now sim)
            | None -> ());
      }
    in
    let e = Evs.create sim net ~me ~universe ~config ~callbacks in
    handle := Some e;
    e
  in
  let corrupt e c =
    let field = Evs.corrupt e c in
    Oracle.record_corruption oracle ~proc:(Evs.me e) ~field ~time:(Sim.now sim)
  in
  let fleet =
    Fleet.create sim ~nodes:universe ~incarnation:(Net.fresh_incarnation net)
      ~boot ~kill:Evs.kill ~is_alive:Evs.is_alive ~me:Evs.me ~corrupt ()
  in
  { sim; net; oracle; rng; log; fleet }

let run t ~until = ignore (Sim.run ~until t.sim)

let live t = Fleet.live t.fleet

let evs_on t node = Fleet.on_node t.fleet node

let send t e ?order () =
  Evs.multicast e ?order
    (Oracle.record_multicast t.oracle ~sender:(Evs.me e) ?order ())

let multicast_from t ~node ?order () =
  match evs_on t node with Some e -> send t e ?order () | None -> ()

let apply_action t action = Fleet.apply t.fleet ~net:t.net action

let run_script t script = Fleet.run_script t.fleet ~net:t.net script

let pump_traffic t ~start ~until ~mean_gap =
  Fleet.pump_traffic t.fleet ~rng:t.rng ~start ~until ~mean_gap
    ~multicast:(fun e order -> send t e ~order ())

let stable_view_reached t =
  Fleet.stable_view t.fleet ~view:Evs.view ~blocked:Evs.is_blocked

let eview_records t = List.rev t.log.rev_records

let eview_changes_total t = t.log.echanges

(* Property 6.1: within one view, every process records the same sequence
   of e-view changes — match records by (view id, eseq) and require equal
   structures and causes. *)
let check_total_order ?(since = neg_infinity) t =
  let records =
    List.filter (fun r -> r.er_time >= since) (eview_records t)
  in
  let key r = (r.er_eview.E_view.view.View.id, r.er_eview.E_view.eseq) in
  let groups =
    Listx.group_by ~key
      ~cmp_key:(fun (v1, s1) (v2, s2) ->
        match View.Id.compare v1 v2 with 0 -> Int.compare s1 s2 | c -> c)
      records
  in
  List.concat_map
    (fun ((vid, eseq), group) ->
      match group with
      | [] | [ _ ] -> []
      | first :: rest ->
          let fingerprint r = E_view.to_string r.er_eview in
          let reference = fingerprint first in
          List.concat_map
            (fun r ->
              let mismatches = ref [] in
              if not (String.equal (fingerprint r) reference) then
                mismatches :=
                  Printf.sprintf
                    "total-order: %s and %s disagree on e-view (%s, %d): %s vs %s"
                    (Proc_id.to_string first.er_proc)
                    (Proc_id.to_string r.er_proc)
                    (View.Id.to_string vid) eseq reference (fingerprint r)
                  :: !mismatches;
              if not (String.equal r.er_cause first.er_cause) then
                mismatches :=
                  Printf.sprintf
                    "total-order: %s and %s disagree on the cause of e-view \
                     (%s, %d): %s vs %s"
                    (Proc_id.to_string first.er_proc)
                    (Proc_id.to_string r.er_proc)
                    (View.Id.to_string vid) eseq first.er_cause r.er_cause
                  :: !mismatches;
              !mismatches)
            rest)
    groups

let same_subview ev p q =
  match (E_view.subview_of p ev, E_view.subview_of q ev) with
  | Some a, Some b -> E_view.Subview_id.equal a.E_view.sv_id b.E_view.sv_id
  | _ -> false

let same_svset ev p q =
  let svset_id_of x =
    match E_view.subview_of x ev with
    | Some sv -> Option.map (fun ss -> ss.E_view.ss_id) (E_view.svset_of_subview sv.E_view.sv_id ev)
    | None -> None
  in
  match (svset_id_of p, svset_id_of q) with
  | Some a, Some b -> E_view.Svset_id.equal a b
  | _ -> false

(* Property 6.3 at each process: compare its last e-view of the old view
   with the first e-view of the new one.  Both directions apply to pairs
   that travelled with the observer (both installed the new view straight
   from the observer's old view): such pairs keep their subview/sv-set
   relation and are never silently joined by the view change.  Pairs with a
   member that detoured through views the observer did not share are
   exempt in both directions — their subview may legitimately have shrunk
   away from a laggard, or been grown by an application merge the observer
   could not see. *)
let check_structure ?(since = neg_infinity) t =
  (* prior view of [proc] when it installed [vid], from the oracle *)
  let prior_of proc vid =
    Oracle.installs_of t.oracle ~proc
    |> List.find_map (fun (v, prior) ->
           if View.Id.equal v.View.id vid then Some prior else None)
  in
  let came_from proc ~new_vid ~old_vid =
    match prior_of proc new_vid with
    | Some prior -> View.Id.equal prior old_vid
    | None -> false
  in
  let by_proc =
    Listx.group_by ~key:(fun r -> r.er_proc) ~cmp_key:Proc_id.compare
      (List.filter (fun r -> r.er_time >= since) (eview_records t))
  in
  List.concat_map
    (fun (proc, records) ->
      let rec walk acc = function
        | prev :: (next :: _ as rest)
          when not
                 (View.Id.equal prev.er_eview.E_view.view.View.id
                    next.er_eview.E_view.view.View.id) ->
            (* prev is the last record of its view (records are in order). *)
            let old_ev = prev.er_eview and new_ev = next.er_eview in
            let survivors =
              Listx.inter ~cmp:Proc_id.compare (E_view.members old_ev)
                (E_view.members new_ev)
            in
            let new_vid = new_ev.E_view.view.View.id in
            let old_vid = old_ev.E_view.view.View.id in
            let errors = ref acc in
            List.iter
              (fun p ->
                List.iter
                  (fun q ->
                    if Proc_id.compare p q < 0 then begin
                      let same_lineage =
                        came_from p ~new_vid ~old_vid
                        && came_from q ~new_vid ~old_vid
                      in
                      let together_before = same_subview old_ev p q in
                      let together_after = same_subview new_ev p q in
                      if same_lineage && together_before && not together_after
                      then
                        errors :=
                          Printf.sprintf
                            "structure@%s: %s,%s shared a subview in %s but \
                             not in %s"
                            (Proc_id.to_string proc) (Proc_id.to_string p)
                            (Proc_id.to_string q)
                            (View.Id.to_string old_ev.E_view.view.View.id)
                            (View.Id.to_string new_ev.E_view.view.View.id)
                          :: !errors;
                      if same_lineage && (not together_before) && together_after
                      then
                        errors :=
                          Printf.sprintf
                            "structure@%s: %s,%s were joined into one subview \
                             by a view change (%s -> %s)"
                            (Proc_id.to_string proc) (Proc_id.to_string p)
                            (Proc_id.to_string q)
                            (View.Id.to_string old_ev.E_view.view.View.id)
                            (View.Id.to_string new_ev.E_view.view.View.id)
                          :: !errors;
                      let ss_before = same_svset old_ev p q in
                      let ss_after = same_svset new_ev p q in
                      if same_lineage && ss_before && not ss_after then
                        errors :=
                          Printf.sprintf
                            "structure@%s: %s,%s shared an sv-set in %s but \
                             not in %s"
                            (Proc_id.to_string proc) (Proc_id.to_string p)
                            (Proc_id.to_string q)
                            (View.Id.to_string old_ev.E_view.view.View.id)
                            (View.Id.to_string new_ev.E_view.view.View.id)
                          :: !errors
                    end)
                  survivors)
              survivors;
            walk !errors rest
        | _ :: rest -> walk acc rest
        | [] -> acc
      in
      walk [] records)
    by_proc
