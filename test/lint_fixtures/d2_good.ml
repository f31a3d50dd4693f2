(* Good: enumeration goes through the sorted helpers, which impose a total
   order before anyone sees the result. *)
let keys tbl = Vs_util.Hashtblx.sorted_keys ~cmp:Int.compare tbl
let bindings tbl = Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare tbl

(* Typed tables: point lookups are fine, and a Map's fold is ordered. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x
end)

module Sorted = Vs_util.Hashtblx.Make (Ids)
module M = Map.Make (Int)

let lookup tbl k = Ids.find_opt tbl k
let ordered tbl = Sorted.sorted_keys ~cmp:Int.compare tbl
let total m = M.fold (fun _ v acc -> v + acc) m 0
