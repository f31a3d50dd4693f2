(** A cluster of plain view-synchronous endpoints under oracle observation,
    one per node of a {!Fleet}.

    Payloads are oracle message identities; every multicast, delivery and
    view installation is recorded, so a run can be driven with arbitrary
    fault scripts and traffic and then checked against Properties 2.1–2.3.
    This is the workhorse of the randomized protocol tests and of
    experiments E4 and E10. *)

module Endpoint = Vs_vsync.Endpoint

type t

val create :
  ?seed:int64 ->
  ?obs:Vs_obs.Recorder.t ->
  ?net_config:Vs_net.Net.config ->
  ?config:Endpoint.config ->
  n:int ->
  unit ->
  t
(** [n] nodes, one process each, booted at time 0. *)

val sim : t -> Vs_sim.Sim.t

val oracle : t -> Oracle.t

val net_stats : t -> Vs_net.Net.stats

val run : t -> until:float -> unit

val live_endpoints : t -> (Oracle.msg_id, unit) Endpoint.t list

val endpoint_on : t -> int -> (Oracle.msg_id, unit) Endpoint.t option
(** The live endpoint on a node, if any. *)

val multicast_from : t -> node:int -> ?order:Endpoint.order -> unit -> unit
(** Multicast the node's next uniquely-identified message. No-op if the
    node is down. *)

val apply_action : t -> Faults.action -> unit
(** {!Fleet.apply} on this cluster's network. *)

val run_script : t -> Faults.script -> unit
(** Schedule a fault script against this cluster ({!Fleet.run_script}). *)

val pump_traffic :
  t -> start:float -> until:float -> mean_gap:float -> unit
(** Schedule random multicasts ({!Fleet.pump_traffic}) from the traffic
    RNG the cluster forks before booting. *)

val stats_total : t -> Endpoint.stats
(** Endpoint counters summed over the live endpoints (retry/NACK activity
    for the loss experiments). *)

val stable_view_reached : t -> bool
(** All live endpoints share one installed view covering all live nodes and
    are not flushing ({!Fleet.stable_view}). *)

val run_until_stable : t -> step:float -> deadline:float -> float
(** Run in [step]-long slices until {!stable_view_reached} holds and return
    the virtual time it was first seen; [infinity] if it still fails once
    the clock reaches [deadline]. *)
