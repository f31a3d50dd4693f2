(** A cluster of enriched-view-synchrony endpoints under observation, one
    per node of a {!Fleet}, with checkers for the Section 6 properties.

    Records every e-view event at every process.  The checkers:

    - {!check_total_order} (Property 6.1): within a view, all processes see
      the same sequence of e-view changes — same positions, same causes,
      same resulting structures;
    - {!check_structure} (Property 6.3): across a view change, processes
      that shared a subview (sv-set) and survive together still share it,
      and processes that did {e not} share one have not been merged silently
      (composition grows only under application control). *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
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

val sim : t -> Vs_sim.Sim.t

val oracle : t -> Oracle.t
(** Message/view recording, as in {!Vsync_cluster} — the Section 2
    properties hold for EVS runs too and can be checked with it. *)

val net_stats : t -> Vs_net.Net.stats

val run : t -> until:float -> unit

val live : t -> (Oracle.msg_id, unit) Evs.t list

val evs_on : t -> int -> (Oracle.msg_id, unit) Evs.t option

val multicast_from : t -> node:int -> ?order:Endpoint.order -> unit -> unit

val apply_action : t -> Faults.action -> unit

val run_script : t -> Faults.script -> unit

val pump_traffic : t -> start:float -> until:float -> mean_gap:float -> unit
(** {!Fleet.pump_traffic} from the traffic RNG the cluster forks before
    booting, as in {!Vsync_cluster}. *)

val stable_view_reached : t -> bool
(** All live handles share one installed view covering all live nodes and
    are not flushing ({!Fleet.stable_view}). *)

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

val eview_records : t -> eview_record list
(** Everything every process saw, in recording order. *)

val check_total_order : ?since:float -> t -> string list
(** [since] (default: the whole run) restricts the check to e-view records
    at or after that time — the stabilization oracle uses it to quarantine
    records inside a transient-fault recovery window. *)

val check_structure : ?since:float -> t -> string list
(** Same [since] semantics as {!check_total_order}; a view transition whose
    old-view record predates [since] is exempt entirely. *)

val eview_changes_total : t -> int
(** Count of within-view e-view changes across all processes (E9). *)
