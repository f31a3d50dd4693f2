(* The process identity is the schema's [Vs_obs.Event.proc]: the protocol
   and the recorded stream share one record, so an event carries the
   protocol's id as it is.  The helpers are the schema's too, each defined
   in one place. *)

type t = Vs_obs.Event.proc = { node : int; inc : int } [@@deriving show]

let make ~node ~inc =
  if node < 0 || inc < 0 then invalid_arg "Proc_id.make: negative component";
  { node; inc }

let initial node = make ~node ~inc:0
let equal = Vs_obs.Event.equal_proc

(* A typed comparator rather than Stdlib's polymorphic compare (vslint rule
   D5). *)
let compare = Vs_obs.Event.compare_proc
let to_string = Vs_obs.Event.proc_to_string
let sort ids = Vs_util.Listx.sorted_set ~cmp:compare ids

let min_member = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left (fun acc p -> if compare p acc < 0 then p else acc)
           first rest)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

(* Allocation-free integer hash.  Polymorphic [Hashtbl.hash] walks the
   record generically on every lookup; the control plane (heartbeats,
   stability gossip, per-message dispatch) looks up a process id on every
   wire message. *)
let hash = Vs_obs.Event.hash_proc

module Tbl = Vs_obs.Event.Proc_tbl
