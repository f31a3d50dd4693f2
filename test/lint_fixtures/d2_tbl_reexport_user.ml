(* Bad, two hops away: enumerates the table re-exported by
   d2_tbl_reexport.ml under its exported name. *)
let visit tbl f = D2_tbl_reexport.Tbl.iter f tbl
let lookup tbl = D2_tbl_reexport.Tbl.find tbl 0
