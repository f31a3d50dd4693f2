(** One process per node under a fault script: the run shape shared by
    {!Vsync_cluster}, {!Evs_cluster} and the application fleets of the
    experiments.

    A fleet owns the node → live-instance table and picks every new
    incarnation's identity.  It interprets {!Faults} actions: crash and
    recover kill and re-boot instances, partition and heal reconfigure the
    network, and a corruption is handed to the live instance.  It also pumps
    random multicast traffic.  What an instance is, and what is recorded
    about it, stays with the caller's [boot]. *)

module Proc_id = Vs_net.Proc_id

type 'a t

val create :
  Vs_sim.Sim.t ->
  nodes:int list ->
  ?incarnation:(int -> Proc_id.t) ->
  boot:(Proc_id.t -> 'a) ->
  kill:('a -> unit) ->
  is_alive:('a -> bool) ->
  me:('a -> Proc_id.t) ->
  ?corrupt:('a -> Faults.corruption -> unit) ->
  unit ->
  'a t
(** Boots one instance per node, in [nodes] order.  [incarnation node]
    names the next instance on [node]; by default the fleet numbers them
    itself (0, 1, 2, … per node).  [corrupt] defaults to ignoring the
    action. *)

val on_node : 'a t -> int -> 'a option
(** The live instance on a node, if any.
    @raise Invalid_argument on a node outside the fleet. *)

val live : 'a t -> 'a list
(** Live instances, in node order. *)

val apply : 'a t -> net:'m Vs_net.Net.t -> Faults.action -> unit
(** Interpret one action now: partitions and heals go to [net]. *)

val run_script : 'a t -> net:'m Vs_net.Net.t -> Faults.script -> unit
(** Schedule every action at its time; each is recorded on the sim's trace
    (component ["faults"]) before it is applied. *)

val pump_traffic :
  'a t ->
  rng:Vs_util.Rng.t ->
  start:float ->
  until:float ->
  mean_gap:float ->
  multicast:('a -> Vs_vsync.Endpoint.order -> unit) ->
  unit
(** Random multicasts: at exponentially-spaced instants a random node's
    live instance, if any, multicasts one message (80% FIFO / 20% total
    order). *)

val stable_view :
  'a t ->
  view:('a -> Vs_gms.View.t) ->
  blocked:('a -> bool) ->
  bool
(** All live instances share one installed view covering all live nodes
    and none is flushing. *)
