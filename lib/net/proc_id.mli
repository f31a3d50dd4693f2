(** Process identifiers.

    Following the paper's system model (Section 2), recovery of a crashed
    process is modelled by assigning it a new identifier: a process is a
    (node, incarnation) pair, and a recovered process — a higher incarnation
    on the same node — is a brand-new group member with no protocol state. *)

type t = Vs_obs.Event.proc = { node : int; inc : int }
[@@deriving eq, ord, show]
(** The schema's process record ({!Vs_obs.Event.proc}), so recorded events
    carry the protocol's own ids.  [equal], [compare] and {!to_string} are
    {!Vs_obs.Event.equal_proc}, {!Vs_obs.Event.compare_proc} and
    {!Vs_obs.Event.proc_to_string}. *)

val make : node:int -> inc:int -> t

val initial : int -> t
(** First incarnation on a node. *)

val to_string : t -> string
(** Compact rendering: ["p3"] for node 3, incarnation 0; ["p3.1"] for
    incarnation 1. *)

val sort : t list -> t list
(** Sorted duplicate-free list — the canonical representation of a
    membership. *)

val min_member : t list -> t option
(** The smallest identifier; used for coordinator election. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

val hash : t -> int
(** Allocation-free integer hash: {!Vs_obs.Event.hash_proc}. *)

module Tbl = Vs_obs.Event.Proc_tbl
(** Hash tables keyed by process id, hashed by {!hash}: the schema's table,
    shared with the analyses.  Enumerate only through its
    [sorted_bindings]/[sorted_keys] (vslint rule D2). *)
