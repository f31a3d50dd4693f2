module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id

type config = { period : float; timeout : float }

let default_config = { period = 0.030; timeout = 0.100 }

type t = {
  sim : Sim.t;
  me : Proc_id.t;
  universe : int list;
  config : config;
  send_heartbeat : dst_node:int -> unit;
  on_change : Proc_id.t list -> unit;
  last_heard : float Proc_id.Tbl.t;
  mutable current : Proc_id.t list;
  mutable stopped : bool;
  mutable tick : unit -> unit;
      (* [tick t], built once: the heartbeat timer re-arms with it *)
}

let compute_reachable t =
  let now = Sim.now t.sim in
  let fresh =
    Proc_id.Tbl.sorted_bindings t.last_heard
    |> List.filter_map (fun (p, heard) ->
           if now -. heard < t.config.timeout then Some p else None)
  in
  Proc_id.sort (t.me :: fresh)

(* The shortcut that keeps the steady state allocation-free.  [current] is
   [me] plus every peer that was fresh at the last refresh, and every
   change to [last_heard] (a heartbeat, a forget) refreshes at once — so a
   peer outside [current] was stale or absent then, and time only moves
   forward: it is stale now too.  The fresh set therefore still equals
   [current] exactly when every peer in [current] is still fresh (and, for
   a heartbeat, its sender is already in [current]).  Only when this says
   no is the set rebuilt and sorted. *)
let rec all_fresh t ~now = function
  | [] -> true
  | p :: rest ->
      (Proc_id.equal p t.me
      ||
      (* vslint: allow D3 — Not_found is the absent case, matched right here *)
      match Proc_id.Tbl.find t.last_heard p with
      | heard -> now -. heard < t.config.timeout
      | exception Not_found -> false)
      && all_fresh t ~now rest

let rec mem p = function [] -> false | q :: rest -> Proc_id.equal p q || mem p rest

let refresh t =
  if not t.stopped then begin
    let next = compute_reachable t in
    if not (List.equal Proc_id.equal next t.current) then begin
      let prev = t.current in
      t.current <- next;
      if Sim.obs_on t.sim then begin
        List.iter
          (fun p ->
            Sim.emit t.sim (Vs_obs.Event.Suspect { proc = t.me; peer = p }))
          (Vs_util.Listx.diff ~cmp:Proc_id.compare prev next);
        List.iter
          (fun p ->
            if not (Proc_id.equal p t.me) then
              Sim.emit t.sim
                (Vs_obs.Event.Unsuspect { proc = t.me; peer = p }))
          (Vs_util.Listx.diff ~cmp:Proc_id.compare next prev)
      end;
      t.on_change next
    end
  end

let rec heartbeat_all t = function
  | [] -> ()
  | node :: rest ->
      if node <> t.me.Proc_id.node then t.send_heartbeat ~dst_node:node;
      heartbeat_all t rest

let tick t () =
  if not t.stopped then begin
    heartbeat_all t t.universe;
    if not (all_fresh t ~now:(Sim.now t.sim) t.current) then refresh t;
    ignore (Sim.after t.sim t.config.period t.tick)
  end

let create sim ~me ~universe ~config ~send_heartbeat ~on_change =
  if config.period <= 0. || config.timeout <= config.period then
    invalid_arg "Fd.create: need 0 < period < timeout";
  let t =
    {
      sim;
      me;
      universe;
      config;
      send_heartbeat;
      on_change;
      last_heard = Proc_id.Tbl.create 16;
      current = [ me ];
      stopped = false;
      tick = ignore;
    }
  in
  t.tick <- tick t;
  (* First tick goes through the event queue so the caller finishes wiring
     up before anything fires. *)
  ignore (Sim.after sim 0. t.tick);
  t

let heartbeat_received t ~from =
  if (not t.stopped) && not (Proc_id.equal from t.me) then begin
    let now = Sim.now t.sim in
    Proc_id.Tbl.replace t.last_heard from now;
    if not (mem from t.current && all_fresh t ~now t.current) then refresh t
  end

let forget t p =
  if Proc_id.Tbl.mem t.last_heard p then begin
    Proc_id.Tbl.remove t.last_heard p;
    refresh t
  end

let reachable t = t.current

let stop t = t.stopped <- true
