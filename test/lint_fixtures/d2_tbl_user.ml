(* Bad, across files: a typed table defined elsewhere in the tree (played
   as lib/net/d2_tbl_bad.ml), reached through a module alias. *)
module Ids = D2_tbl_bad.Ids

let sweep tbl = Ids.to_seq_keys tbl
let first tbl = D2_tbl_bad.Tbl.find tbl 0
