module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng

type t = {
  sim : Sim.t;
  net : (Oracle.msg_id, unit) Vs_vsync.Wire.t Net.t;
  oracle : Oracle.t;
  rng : Rng.t;
  fleet : (Oracle.msg_id, unit) Endpoint.t Fleet.t;
}

let sim t = t.sim

let oracle t = t.oracle

let net_stats t = Net.stats t.net

let create ?(seed = 1L) ?obs ?(net_config = Net.default_config)
    ?(config = Endpoint.default_config) ~n () =
  let sim = Sim.create ~seed ?obs () in
  (* Byte accounting matches the EVS cluster's (8-byte payloads and
     annotations), so E9's overhead comparison is apples to apples. *)
  let size_of =
    Vs_vsync.Wire.size_of ~user:(fun (_ : Oracle.msg_id) -> 8) ~ann:(fun () -> 8)
  in
  let user (m : Oracle.msg_id) = Some (Oracle.msg_id_to_obs m) in
  let ident = Vs_vsync.Wire.ident ~user in
  let idents = Vs_vsync.Wire.idents ~user in
  let net =
    Net.create ~size_of ~describe:Vs_vsync.Wire.kind ~ident ~idents sim
      net_config
  in
  let oracle = Oracle.create () in
  let rng = Sim.fork_rng sim in
  let universe = List.init n (fun i -> i) in
  let boot me =
    let prior = ref (View.Id.initial me) in
    let endpoint = ref None in
    let callbacks =
      {
        Endpoint.on_view =
          (fun ev ->
            Oracle.record_install oracle ~proc:me ~view:ev.Endpoint.view
              ~prior:!prior ~time:(Sim.now sim);
            prior := ev.Endpoint.view.View.id);
        on_message =
          (fun ~sender:_ msg_id ->
            match !endpoint with
            | Some ep ->
                Oracle.record_delivery oracle ~proc:me
                  ~vid:(Endpoint.view ep).View.id msg_id ~time:(Sim.now sim)
            | None -> ());
      }
    in
    let ep = Endpoint.create sim net ~me ~universe ~config ~callbacks in
    endpoint := Some ep;
    ep
  in
  let corrupt ep c =
    let field = Endpoint.corrupt ep c in
    Oracle.record_corruption oracle ~proc:(Endpoint.me ep) ~field
      ~time:(Sim.now sim)
  in
  let fleet =
    Fleet.create sim ~nodes:universe ~incarnation:(Net.fresh_incarnation net)
      ~boot ~kill:Endpoint.kill ~is_alive:Endpoint.is_alive ~me:Endpoint.me
      ~corrupt ()
  in
  { sim; net; oracle; rng; fleet }

let run t ~until = ignore (Sim.run ~until t.sim)

let live_endpoints t = Fleet.live t.fleet

let endpoint_on t node = Fleet.on_node t.fleet node

let send t ep ?order () =
  Endpoint.multicast ep ?order
    (Oracle.record_multicast t.oracle ~sender:(Endpoint.me ep) ?order ())

let multicast_from t ~node ?order () =
  match endpoint_on t node with Some ep -> send t ep ?order () | None -> ()

let apply_action t action = Fleet.apply t.fleet ~net:t.net action

let run_script t script = Fleet.run_script t.fleet ~net:t.net script

let pump_traffic t ~start ~until ~mean_gap =
  Fleet.pump_traffic t.fleet ~rng:t.rng ~start ~until ~mean_gap
    ~multicast:(fun ep order -> send t ep ~order ())

(* Endpoint counters summed over the live endpoints — the cluster-level
   view of retry/NACK activity for experiments and tests. *)
let stats_total t =
  List.fold_left
    (fun (acc : Endpoint.stats) ep ->
      let s = Endpoint.stats ep in
      {
        Endpoint.views_installed = acc.Endpoint.views_installed + s.Endpoint.views_installed;
        proposals_started = acc.Endpoint.proposals_started + s.Endpoint.proposals_started;
        data_sent = acc.Endpoint.data_sent + s.Endpoint.data_sent;
        delivered = acc.Endpoint.delivered + s.Endpoint.delivered;
        sync_delivered = acc.Endpoint.sync_delivered + s.Endpoint.sync_delivered;
        stale_dropped = acc.Endpoint.stale_dropped + s.Endpoint.stale_dropped;
        to_dropped = acc.Endpoint.to_dropped + s.Endpoint.to_dropped;
        nacks_sent = acc.Endpoint.nacks_sent + s.Endpoint.nacks_sent;
        retransmits = acc.Endpoint.retransmits + s.Endpoint.retransmits;
        peer_retransmits = acc.Endpoint.peer_retransmits + s.Endpoint.peer_retransmits;
        stabilized = acc.Endpoint.stabilized + s.Endpoint.stabilized;
        ctl_retries = acc.Endpoint.ctl_retries + s.Endpoint.ctl_retries;
        ctl_abandoned = acc.Endpoint.ctl_abandoned + s.Endpoint.ctl_abandoned;
        batches_sent = acc.Endpoint.batches_sent + s.Endpoint.batches_sent;
      })
    {
      Endpoint.views_installed = 0;
      proposals_started = 0;
      data_sent = 0;
      delivered = 0;
      sync_delivered = 0;
      stale_dropped = 0;
      to_dropped = 0;
      nacks_sent = 0;
      retransmits = 0;
      peer_retransmits = 0;
      stabilized = 0;
      ctl_retries = 0;
      ctl_abandoned = 0;
      batches_sent = 0;
    }
    (live_endpoints t)

let stable_view_reached t =
  Fleet.stable_view t.fleet ~view:Endpoint.view ~blocked:Endpoint.is_blocked

let run_until_stable t ~step ~deadline =
  let rec wait () =
    if stable_view_reached t then Sim.now t.sim
    else if Sim.now t.sim >= deadline then infinity
    else begin
      run t ~until:(Sim.now t.sim +. step);
      wait ()
    end
  in
  wait ()
