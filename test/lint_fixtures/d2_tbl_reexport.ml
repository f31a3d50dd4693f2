(* Bad, through a re-export: a typed table defined elsewhere in the tree
   (played as lib/net/d2_tbl_bad.ml) and published here under another name
   (played as lib/gms/d2_tbl_reexport.ml), so that a third file reaches it
   as [D2_tbl_reexport.Tbl] with no alias of its own. *)
module Tbl = D2_tbl_bad.Tbl

let size tbl = Tbl.length tbl
