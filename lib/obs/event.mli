(** The typed observability event schema.

    This module sits {e below} [lib/sim] in the dependency order, so it
    declares the process and view identities ([proc], [vid]) and the
    protocol layers take them as their own: [Proc_id.t] is [proc] and
    [View.Id.t] is [vid], by type equation.  An emission site puts the
    protocol's record into the event as it is, with no conversion and no
    copy.  Every variant carries only immediate data — no closures, no
    views — so recording stays allocation-light and exporters can serialize
    without reaching back into protocol state. *)

type proc = { node : int; inc : int }
(** A process: node and incarnation; the same type as [Proc_id.t].
    [inc = -1] encodes a node-addressed destination
    (a [send_node] target whose live incarnation is resolved at delivery). *)

type vid = { epoch : int; proposer : proc }
(** A view identifier; the same type as [View.Id.t]. *)

val proc_to_string : proc -> string
(** ["p3"], ["p3.1"], or ["n3"] for a node-addressed destination. *)

val proc_of_string : string -> proc option

val vid_to_string : vid -> string
(** ["v4@p2.1"]. *)

val vid_of_string : string -> vid option

type msg = { origin : proc; mseq : int }
(** Stable correlation identity of an application message: the original
    sender and its per-sender multicast index — the (origin, seq) pair the
    oracle also keys on.  Carried by data-path events whose payload wraps an
    application message, so one message can be followed through relays,
    retries, drops and duplicates. *)

val msg_to_string : msg -> string
(** ["p0#3"]. *)

val msg_of_string : string -> msg option

val compare_proc : proc -> proc -> int

val compare_vid : vid -> vid -> int

val compare_msg : msg -> msg -> int

val equal_proc : proc -> proc -> bool

val equal_vid : vid -> vid -> bool

val equal_msg : msg -> msg -> bool

val hash_proc : proc -> int
(** Allocation-free integer hashes over the identity's fields, consistent
    with the [equal_*] functions. *)

val hash_msg : msg -> int

(** Tables keyed on the typed identities — the matching keys of the
    [Causal], [Stall], [Critpath] and [Metrics] folds, and the protocol's
    per-process tables.  Output order never comes from a table: it comes
    from the typed comparators above. *)

(** Hash tables keyed by process, hashed by {!hash_proc}; [Proc_id.Tbl] is
    this module.  Like every hash table, enumeration order is bucket order:
    the only sanctioned enumerations are the sorted ones below (vslint rule
    D2 flags raw [iter]/[fold]/[to_seq] on this module and its aliases). *)
module Proc_tbl : sig
  include Hashtbl.S with type key = proc

  val sorted_bindings : 'a t -> (key * 'a) list
  (** Every binding, in {!compare_proc} order of the keys. *)

  val sorted_keys : 'a t -> key list
  (** Every key, in {!compare_proc} order. *)
end

module Vid_tbl : Hashtbl.S with type key = vid

module Proc_vid_tbl : Hashtbl.S with type key = proc * vid

module Proc_str_tbl : Hashtbl.S with type key = proc * string
(** Keyed on a process and a constant name, e.g. a task kind. *)

type t =
  | Send of {
      src : proc;
      dst : proc;
      kind : string;
      bytes : int;
      msg : msg option;
    }
  | Recv of { src : proc; dst : proc; kind : string; msg : msg option }
  | Drop of {
      src : proc;
      dst : proc;
      kind : string;
      reason : string;
      msg : msg option;
    }
      (** [reason] is one of ["src-dead"], ["dst-dead"], ["partition"],
          ["loss"] (all decided at send time) or ["partition-inflight"],
          ["dst-dead"] at arrival time — a message already on the wire killed
          by a partition installed, or a crash happening, while it was in
          flight. *)
  | Dup of { src : proc; dst : proc; kind : string; msg : msg option }
  | Retransmit of { proc : proc; origin : proc; count : int; peer : bool }
      (** [proc] re-sent [count] messages of [origin]'s stream; [peer] when
          served by a peer rather than the original sender. *)
  | Backoff of { proc : proc; dst : proc; attempt : int; delay : float }
      (** Control-plane retry with exponential backoff. *)
  | Suspect of { proc : proc; peer : proc }
  | Unsuspect of { proc : proc; peer : proc }
  | Propose of { proc : proc; vid : vid; members : proc list }
  | Flush of { proc : proc; vid : vid; seen : int }
      (** Flush-ack sent while installing [vid]; [seen] is the size of the
          stability vector reported. *)
  | Install of { proc : proc; vid : vid; members : proc list; sync : int }
      (** View installation; [sync] counts messages delivered during the
          closing flush (the view-synchrony sync barrier). *)
  | Eview of {
      proc : proc;
      vid : vid;
      eseq : int;
      cause : string;
      subviews : int;
      svsets : int;
    }  (** EVS extended-view installation (Section 6). *)
  | Mode_change of {
      proc : proc;
      from_mode : string;
      into_mode : string;
      cause : string;
    }  (** NORMAL/REDUCED/SETTLING transition (Figure 1). *)
  | Settle of {
      proc : proc;
      vid : vid;
      transfer : bool;
      creation : string;
      merging : bool;
      clusters : int;
    }
      (** Section 4 classification at a settling view: state transfer needed,
          creation kind (["none"], ["rebirth"], ["in-progress"]), merging,
          and the S_R cluster count. *)
  | Task_start of { proc : proc; task : string; vid : vid }
  | Task_done of { proc : proc; task : string; vid : vid }
      (** State transfer / merge / creation work items. *)
  | Crash of { proc : proc }
  | Partition of { components : int list list }
  | Heal
  | Corrupt of { proc : proc; field : string; detail : string }
      (** Transient state corruption injected into [proc]: [field] is the
          stable name of the corrupted protocol field (["send_seq"],
          ["stable_vectors"], ["acked"], ["stream.next"]), [detail] the
          before/after rendering of the mutation. *)
  | Quarantine of {
      bound : int;
      opened : float;
      cut : float;
      views : int;
      quarantined : int;
    }
      (** Stabilization-oracle verdict window: violations between [opened]
          (the first transient fault) and [cut] (the first installation of
          the [bound]-th new view after the last fault) are quarantined as
          recovery noise; [cut = -1] means fewer than [bound] fresh views
          were installed.  [views] counts the fresh views, [quarantined]
          the violations attributed to the window. *)
  | Note of { component : string; message : string }
      (** Untyped escape hatch; carries legacy [Trace.record] calls. *)

val component : t -> string
(** The legacy trace component this event renders under ("net", "vsync",
    "fd", "gms", "evs", "mode", "app", "harness", or the [Note]
    component). *)

val type_name : t -> string
(** Stable wire name used by the JSONL schema. *)

val all_type_names : string list
(** Every value [type_name] can return; the @trace-schema guard checks the
    committed sample covers all of them. *)

val render : t -> string
(** Human-readable one-liner (no timestamp/component prefix). *)

(** {2 Structural accessors}

    Used by the read side ([Query] / [Lineage] / [Explain]) to slice a stream
    without matching on every variant. *)

val procs : t -> proc list
(** Every process the event mentions, in payload order (members included for
    [Propose]/[Install]). *)

val vids : t -> vid list
(** Every view identifier the event mentions. *)

val msg_of : t -> msg option
(** The correlation identity, for the data-path events that carry one. *)
