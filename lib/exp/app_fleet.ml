module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Classify = Evs_core.Classify
module History = Evs_core.History
module Fleet = Vs_harness.Fleet
module Sim = Vs_sim.Sim
module Rng = Vs_util.Rng

type 'app t = {
  fleet : 'app Fleet.t;
  nodes : int list;
  me : 'app -> Proc_id.t;
  history : 'app -> History.t;
  rev_all : 'app list ref;  (* every instance ever booted, newest first *)
}

let create ~sim ~nodes ~make ~kill ~is_alive ~me ~history =
  let rev_all = ref [] in
  let boot (p : Proc_id.t) =
    let app = make ~node:p.Proc_id.node ~inc:p.Proc_id.inc in
    rev_all := app :: !rev_all;
    app
  in
  let fleet = Fleet.create sim ~nodes ~boot ~kill ~is_alive ~me () in
  { fleet; nodes; me; history; rev_all }

let live t = Fleet.live t.fleet

let on_node t node = Fleet.on_node t.fleet node

let all_ever t = List.rev !(t.rev_all)

let history_of t proc =
  List.find_map
    (fun app ->
      if Proc_id.equal (t.me app) proc then Some (t.history app) else None)
    !(t.rev_all)

let run_script t ~net script = Fleet.run_script t.fleet ~net script

(* ---------- open-loop load generation ---------- *)

type load = {
  mutable offered : int;
  mutable accepted : int;
  mutable rejected : int;
}

(* Poisson arrivals at [rate] ops/s from [clients] simulated clients, each
   pinned to a fleet node round-robin.  Open loop: arrival times are drawn
   up front from the exponential inter-arrival process and never wait for
   completions, so a slow data plane shows up as latency, not as a reduced
   offered rate.  Each fired arrival schedules the next, keeping the event
   heap small at high rates.  Returns the live counters; read them after
   running the sim past [until]. *)
let open_loop t sim ~rng ~start ~until ~rate ~clients ~submit =
  if rate <= 0. then invalid_arg "App_fleet.open_loop: rate must be positive";
  if clients <= 0 then
    invalid_arg "App_fleet.open_loop: need at least one client";
  let load = { offered = 0; accepted = 0; rejected = 0 } in
  let nodes = Array.of_list t.nodes in
  let n_nodes = Array.length nodes in
  if n_nodes = 0 then invalid_arg "App_fleet.open_loop: empty fleet";
  let mean_gap = 1.0 /. rate in
  let rec fire time () =
    let op = load.offered in
    load.offered <- op + 1;
    let client = Rng.int rng clients in
    let node = nodes.(client mod n_nodes) in
    let ok =
      match on_node t node with
      | Some app -> submit app ~client ~op
      | None -> false (* client's node is down: op refused at the door *)
    in
    if ok then load.accepted <- load.accepted + 1
    else load.rejected <- load.rejected + 1;
    schedule time
  and schedule time =
    let next = time +. Rng.exponential rng mean_gap in
    if next < until then ignore (Sim.at sim next (fire next))
  in
  schedule start;
  load

(* Walk the history backwards from the View_event of [vid]: the first
   Mode_event before it is the mode the process was in at the cut. *)
let prior_state_of t proc ~vid =
  match history_of t proc with
  | None -> (Classify.Was_fresh, None)
  | Some h ->
      let events = History.events h in
      (* Find the index of the install of [vid]; if absent (the process
         died first), analyse the whole history. *)
      let rec find_ix i = function
        | { History.event = History.View_event v; _ } :: _
          when View.Id.equal v.View.id vid ->
            Some i
        | _ :: rest -> find_ix (i + 1) rest
        | [] -> None
      in
      let horizon =
        match find_ix 0 events with
        | Some i -> Vs_util.Listx.take i events
        | None -> events
      in
      let rec scan mode prior = function
        | [] -> (mode, prior)
        | { History.event; _ } :: rest ->
            let mode, prior =
              match event with
              | History.Mode_event { mode = m; _ } ->
                  let state =
                    match m with
                    | Mode.Normal -> Classify.Was_normal
                    | Mode.Reduced -> Classify.Was_reduced
                    | Mode.Settling -> Classify.Was_settling
                  in
                  (state, prior)
              | History.View_event v -> (mode, Some v.View.id)
              | History.Deliver _ | History.Eview_event _ -> (mode, prior)
            in
            scan mode prior rest
      in
      scan Classify.Was_fresh None horizon
