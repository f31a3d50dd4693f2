(* Bad: typed tables (Hashtbl.Make instances and Hashtbl.S functor
   parameters) enumerate in hash-bucket order and raise a bare Not_found
   exactly like the polymorphic table. *)
module Key = struct
  type t = int

  let equal = Int.equal
  let hash x = x
end

module Ids = Hashtbl.Make (Key)

module Tbl = struct
  module H = Hashtbl.Make (Key)
  include H
end

module Keys (T : Hashtbl.S) = struct
  let of_table tbl = T.fold (fun k _ acc -> k :: acc) tbl []
end

let keys tbl = Ids.fold (fun k _ acc -> k :: acc) tbl []
let visit tbl f = Tbl.iter f tbl
let lookup tbl k = Ids.find tbl k
