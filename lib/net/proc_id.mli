(** Process identifiers.

    Following the paper's system model (Section 2), recovery of a crashed
    process is modelled by assigning it a new identifier: a process is a
    (node, incarnation) pair, and a recovered process — a higher incarnation
    on the same node — is a brand-new group member with no protocol state. *)

type t = { node : int; inc : int } [@@deriving eq, ord, show]

val make : node:int -> inc:int -> t

val initial : int -> t
(** First incarnation on a node. *)

val to_string : t -> string
(** Compact rendering, e.g. "p3.0" for node 3, incarnation 0. *)

val to_obs : t -> Vs_obs.Event.proc
(** Mirror into the observability schema (which sits below this library in
    the dependency order). *)

val sort : t list -> t list
(** Sorted duplicate-free list — the canonical representation of a
    membership. *)

val min_member : t list -> t option
(** The smallest identifier; used for coordinator election. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

val hash : t -> int
(** Allocation-free integer hash, equal to {!Vs_obs.Event.hash_proc} of the
    mirrored id. *)

(** Hash tables keyed by process id, hashed by {!hash}.  Like every hash
    table, enumeration order is bucket order: the only sanctioned
    enumerations are the sorted ones below (vslint rule D2 flags raw
    [iter]/[fold]/[to_seq] on this module too). *)
module Tbl : sig
  include Hashtbl.S with type key = t

  val sorted_bindings : 'a t -> (key * 'a) list
  (** Every binding, in {!compare} order of the keys. *)

  val sorted_keys : 'a t -> key list
  (** Every key, in {!compare} order. *)
end
