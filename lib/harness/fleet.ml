module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

type 'a slot = { mutable current : 'a option }

type 'a t = {
  sim : Sim.t;
  nodes : int list;
  slots : (int, 'a slot) Hashtbl.t;
  incarnation : int -> Proc_id.t;
  boot : Proc_id.t -> 'a;
  kill : 'a -> unit;
  is_alive : 'a -> bool;
  me : 'a -> Proc_id.t;
  corrupt : 'a -> Faults.corruption -> unit;
}

(* Incarnations numbered by the fleet itself: 0, 1, 2, … per node. *)
let counter () =
  let next = Hashtbl.create 16 in
  fun node ->
    let inc = Option.value ~default:0 (Hashtbl.find_opt next node) in
    Hashtbl.replace next node (inc + 1);
    Proc_id.make ~node ~inc

let slot t node =
  match Hashtbl.find_opt t.slots node with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Fleet: unknown node %d" node)

let start t node = (slot t node).current <- Some (t.boot (t.incarnation node))

let create sim ~nodes ?incarnation ~boot ~kill ~is_alive ~me
    ?(corrupt = fun _ _ -> ()) () =
  let incarnation =
    match incarnation with Some f -> f | None -> counter ()
  in
  let t =
    {
      sim;
      nodes;
      slots = Hashtbl.create 16;
      incarnation;
      boot;
      kill;
      is_alive;
      me;
      corrupt;
    }
  in
  List.iter
    (fun node ->
      Hashtbl.replace t.slots node { current = None };
      start t node)
    nodes;
  t

let on_node t node =
  match (slot t node).current with
  | Some a when t.is_alive a -> Some a
  | Some _ | None -> None

let live t = List.filter_map (on_node t) t.nodes

let apply t ~net action =
  match action with
  | Faults.Partition comps -> Net.set_partition net comps
  | Faults.Heal -> Net.heal net
  | Faults.Crash node -> (
      match on_node t node with
      | Some a ->
          t.kill a;
          (slot t node).current <- None
      | None -> ())
  | Faults.Recover node -> (
      match on_node t node with
      | Some _ -> () (* already up *)
      | None -> start t node)
  | Faults.Corrupt (node, c) -> (
      match on_node t node with Some a -> t.corrupt a c | None -> ())

let run_script t ~net script =
  Faults.schedule t.sim script ~apply:(fun action ->
      Sim.record t.sim ~component:"faults" (Faults.to_string action);
      apply t ~net action)

let pump_traffic t ~rng ~start ~until ~mean_gap ~multicast =
  let rec arm time =
    let time = time +. Rng.exponential rng mean_gap in
    if time < until then begin
      ignore
        (Sim.at t.sim time (fun () ->
             let node = Rng.pick rng t.nodes in
             let order =
               if Rng.bool rng 0.2 then Endpoint.Total else Endpoint.Fifo
             in
             match on_node t node with
             | Some a -> multicast a order
             | None -> ()));
      arm time
    end
  in
  arm start

let stable_view t ~view ~blocked =
  match live t with
  | [] -> false
  | a :: _ as all ->
      let v = view a in
      let nodes ps =
        List.sort_uniq Int.compare
          (List.map (fun (p : Proc_id.t) -> p.Proc_id.node) ps)
      in
      List.for_all (fun b -> View.equal (view b) v) all
      && Listx.equal_set ~cmp:Int.compare (nodes v.View.members)
           (nodes (List.map t.me all))
      && List.for_all (fun b -> not (blocked b)) all
