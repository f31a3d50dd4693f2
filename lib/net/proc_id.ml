type t = { node : int; inc : int } [@@deriving eq, ord, show]

let make ~node ~inc =
  if node < 0 || inc < 0 then invalid_arg "Proc_id.make: negative component";
  { node; inc }

let initial node = make ~node ~inc:0

(* Same order as the derived one, spelled out so callers (and vslint rule
   D5) see a typed comparator rather than Stdlib's polymorphic compare. *)
let compare a b =
  match Int.compare a.node b.node with 0 -> Int.compare a.inc b.inc | c -> c

let to_string t =
  if t.inc = 0 then Printf.sprintf "p%d" t.node
  else Printf.sprintf "p%d.%d" t.node t.inc

let to_obs t = { Vs_obs.Event.node = t.node; inc = t.inc }

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

(* Allocation-free integer hash: the same formula as
   [Vs_obs.Event.hash_proc], so a process hashes alike in the protocol's
   tables and in the analyses' tables.  Polymorphic [Hashtbl.hash] walks
   the record generically on every lookup; the control plane (heartbeats,
   stability gossip, per-message dispatch) looks up a process id on every
   wire message. *)
let hash t = (t.node * 65599) + t.inc

module Tbl = struct
  module H = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  include H
  module Sorted = Vs_util.Hashtblx.Make (H)

  let sorted_bindings tbl = Sorted.sorted_bindings ~cmp:compare tbl
  let sorted_keys tbl = Sorted.sorted_keys ~cmp:compare tbl
end
