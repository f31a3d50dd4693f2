(* Deterministic views of Hashtbl contents.

   Hashtbl enumeration order is a function of hash-bucket layout, not of
   anything the protocol reasons about, so vslint (rule D2) rejects raw
   iter/fold sites — on the polymorphic [Hashtbl] and on every
   [Hashtbl.Make] instance alike.  These helpers are the sanctioned escape
   hatch: they enumerate once and immediately impose the caller's total
   order, so the result is independent of insertion history and of the
   hash function. *)

let sorted_bindings ~cmp tbl =
  (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, _) (kb, _) -> cmp ka kb)

let sorted_keys ~cmp tbl =
  (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort cmp

(* The same two views for a typed table ([Hashtbl.Make] instance). *)
module Make (T : Hashtbl.S) = struct
  let sorted_bindings ~cmp tbl =
    (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
    T.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (ka, _) (kb, _) -> cmp ka kb)

  let sorted_keys ~cmp tbl =
    (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
    T.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort cmp
end
