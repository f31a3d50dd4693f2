(* Happened-before DAG construction (see causal.mli for the edge model).

   One forward pass over the stream.  Matching state, every key a typed
   identity hashed over its fields (nothing is rendered to a string):

   - program order: last node id per process incarnation;
   - message edges: FIFO queue of unconsumed wire copies per
     (kind, src, dst node, identity) — [Send] and [Dup] push one copy,
     [Recv] and arrival-time [Drop]s pop one.  Destinations are keyed by
     node, not incarnation, because [send_node] records the pseudo-proc
     [n<dst>] (inc = -1) on the send side but the resolved incarnation on
     delivery;
   - barriers: the first [Propose] node and every [Flush] node per view id.

   No table is enumerated, so the key type cannot reorder any edge list.

   All edges link an already-seen node to the current one, so the DAG is
   acyclic by construction; [validate] re-checks. *)

type edge_kind = Program | Message | Barrier

let edge_kind_to_string = function
  | Program -> "program"
  | Message -> "message"
  | Barrier -> "barrier"

type node = { id : int; time : float; event : Event.t }

type stats = {
  c_nodes : int;
  c_program_edges : int;
  c_message_edges : int;
  c_barrier_edges : int;
  c_orphan_recvs : int;
}

(* Edges are stored flat, one int each (pred id * 4 + kind code), grouped
   by destination: every edge is discovered while its destination is the
   node being visited, so node [i]'s preds are the contiguous run
   [g_edges.(g_first.(i)) .. g_edges.(g_first.(i + 1) - 1)], in discovery
   order.  Building allocates nothing per edge. *)
type t = {
  g_nodes : node array;
  g_first : int array;
  g_edges : int array;
  g_stats : stats;
  g_orphans : int list;
}

let kind_code = function Program -> 0 | Message -> 1 | Barrier -> 2

let kind_of_code = function 0 -> Program | 1 -> Message | _ -> Barrier

let nodes t = t.g_nodes

(* Newest edge first. *)
let preds t id =
  let acc = ref [] in
  for e = t.g_first.(id) to t.g_first.(id + 1) - 1 do
    let x = t.g_edges.(e) in
    acc := (x lsr 2, kind_of_code (x land 3)) :: !acc
  done;
  !acc

let stats t = t.g_stats

let orphans t = t.g_orphans

(* The process whose program the event belongs to.  Environment events
   (partitions, healing, oracle verdicts, notes) belong to no program; an
   in-flight drop is nobody's action either — its causality is the message
   edge from the send that put the copy on the wire. *)
let actor (ev : Event.t) =
  match ev with
  | Event.Send { src; _ } | Event.Dup { src; _ } -> Some src
  | Event.Recv { dst; _ } -> Some dst
  | Event.Drop { src; reason; _ } ->
      (* Send-time drops are decided by (and charged to) the sender;
         arrival-time reasons have no acting process. *)
      if reason = "src-dead" || reason = "partition" || reason = "loss" then
        Some src
      else None
  | Event.Retransmit { proc; _ }
  | Event.Backoff { proc; _ }
  | Event.Suspect { proc; _ }
  | Event.Unsuspect { proc; _ }
  | Event.Propose { proc; _ }
  | Event.Flush { proc; _ }
  | Event.Install { proc; _ }
  | Event.Eview { proc; _ }
  | Event.Mode_change { proc; _ }
  | Event.Settle { proc; _ }
  | Event.Task_start { proc; _ }
  | Event.Task_done { proc; _ }
  | Event.Crash { proc }
  | Event.Corrupt { proc; _ } ->
      Some proc
  | Event.Partition _ | Event.Heal | Event.Quarantine _ | Event.Note _ -> None

(* Wire-copy matching key.  [dst] by node (see header); [kind] is one of
   Wire.kind's constant names. *)
type copy = {
  kind : string;
  src : Event.proc;
  dst_node : int;
  msg : Event.msg option;
}

module Copy_tbl = Hashtbl.Make (struct
  type t = copy

  let equal a b =
    a.dst_node = b.dst_node
    && Event.equal_proc a.src b.src
    && String.equal a.kind b.kind
    &&
    match (a.msg, b.msg) with
    | Some x, Some y -> Event.equal_msg x y
    | None, None -> true
    | Some _, None | None, Some _ -> false

  let hash k =
    let h = (Event.hash_proc k.src * 65599) + k.dst_node in
    let h =
      match k.msg with
      | Some m -> (h * 65599) + Event.hash_msg m
      | None -> h * 31
    in
    (h * 65599) + Hashtbl.hash k.kind
end)

let of_entries (entries : Recorder.entry list) =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let g_nodes =
    Array.init n (fun i ->
        { id = i; time = arr.(i).Recorder.time; event = arr.(i).Recorder.event })
  in
  let g_first = Array.make (n + 1) 0 in
  let edges = ref (Array.make (2 * n) 0) and n_edges = ref 0 in
  let p_edges = ref 0 and m_edges = ref 0 and b_edges = ref 0 in
  (* an edge into the node being visited *)
  let add_edge kind src =
    if !n_edges = Array.length !edges then begin
      let grown = Array.make (2 * !n_edges + 16) 0 in
      Array.blit !edges 0 grown 0 !n_edges;
      edges := grown
    end;
    !edges.(!n_edges) <- (src lsl 2) lor kind_code kind;
    incr n_edges;
    match kind with
    | Program -> incr p_edges
    | Message -> incr m_edges
    | Barrier -> incr b_edges
  in
  (* last node per process incarnation *)
  let last_of : int Event.Proc_tbl.t = Event.Proc_tbl.create 64 in
  (* unconsumed wire copies per matching key, oldest first; a key leaves
     the table when its last copy is consumed, so the table holds only
     what is in flight.  A key rarely has more than two copies at once (a
     [Dup], or back-to-back control messages), so a list is the queue. *)
  let pending : int list Copy_tbl.t = Copy_tbl.create 64 in
  (* first Propose node / all Flush nodes (reverse order) per vid *)
  let propose_of : int Event.Vid_tbl.t = Event.Vid_tbl.create 16 in
  let flushes_of : int list Event.Vid_tbl.t = Event.Vid_tbl.create 16 in
  let rev_orphans = ref [] in
  let push_copy key i =
    match Copy_tbl.find_opt pending key with
    | Some copies -> Copy_tbl.replace pending key (copies @ [ i ])
    | None -> Copy_tbl.replace pending key [ i ]
  in
  let pop_copy key =
    match Copy_tbl.find_opt pending key with
    | Some [ j ] ->
        Copy_tbl.remove pending key;
        Some j
    | Some (j :: rest) ->
        Copy_tbl.replace pending key rest;
        Some j
    | Some [] | None -> None
  in
  let program p i =
    (match Event.Proc_tbl.find_opt last_of p with
    | Some j -> add_edge Program j
    | None -> ());
    Event.Proc_tbl.replace last_of p i
  in
  Array.iteri
    (fun i (nd : node) ->
      g_first.(i) <- !n_edges;
      (* program-order edge per acting process *)
      (match actor nd.event with Some p -> program p i | None -> ());
      match nd.event with
      | Event.Send { src; dst; kind; msg; _ } | Event.Dup { src; dst; kind; msg }
        ->
          push_copy { kind; src; dst_node = dst.Event.node; msg } i
      | Event.Recv { src; dst; kind; msg } -> (
          match pop_copy { kind; src; dst_node = dst.Event.node; msg } with
          | Some j -> add_edge Message j
          | None -> rev_orphans := i :: !rev_orphans)
      | Event.Drop { src; dst; kind; reason; msg } ->
          (* Arrival-time drops consume the copy their send put on the wire;
             send-time drops never had one, and [pop_copy] returning [None]
             covers both a send-time reason and a truncated recording. *)
          if reason = "partition-inflight" || reason = "dst-dead" then (
            match pop_copy { kind; src; dst_node = dst.Event.node; msg } with
            | Some j -> add_edge Message j
            | None -> ())
      | Event.Propose { vid; _ } ->
          if not (Event.Vid_tbl.mem propose_of vid) then
            Event.Vid_tbl.replace propose_of vid i
      | Event.Flush { vid; _ } ->
          (match Event.Vid_tbl.find_opt propose_of vid with
          | Some j -> add_edge Barrier j
          | None -> ());
          let prev =
            match Event.Vid_tbl.find_opt flushes_of vid with
            | Some l -> l
            | None -> []
          in
          Event.Vid_tbl.replace flushes_of vid (i :: prev)
      | Event.Install { vid; _ } ->
          (match Event.Vid_tbl.find_opt propose_of vid with
          | Some j -> add_edge Barrier j
          | None -> ());
          List.iter
            (fun j -> add_edge Barrier j)
            (match Event.Vid_tbl.find_opt flushes_of vid with
            | Some l -> List.rev l
            | None -> [])
      | _ -> ())
    g_nodes;
  g_first.(n) <- !n_edges;
  {
    g_nodes;
    g_first;
    g_edges = Array.sub !edges 0 !n_edges;
    g_stats =
      {
        c_nodes = n;
        c_program_edges = !p_edges;
        c_message_edges = !m_edges;
        c_barrier_edges = !b_edges;
        c_orphan_recvs = List.length !rev_orphans;
      };
    g_orphans = List.rev !rev_orphans;
  }

let validate t =
  let n = Array.length t.g_nodes in
  let pred e = t.g_edges.(e) lsr 2 in
  let bad = ref None in
  for i = 0 to n - 1 do
    for e = t.g_first.(i) to t.g_first.(i + 1) - 1 do
      let j = pred e in
      if (j < 0 || j >= i) && !bad = None then bad := Some (j, i)
    done
  done;
  match !bad with
  | Some (j, i) ->
      Error
        (Printf.sprintf "edge %d -> %d violates stream topological order" j i)
  | None ->
      (* Forward edges imply acyclicity, but re-verify with an explicit
         topological pass so the property holds even if construction ever
         changes: process ids in order, demanding every predecessor was
         already finished. *)
      let done_ = Array.make n false in
      let ok = ref true in
      for i = 0 to n - 1 do
        for e = t.g_first.(i) to t.g_first.(i + 1) - 1 do
          if not done_.(pred e) then ok := false
        done;
        done_.(i) <- true
      done;
      if !ok then Ok () else Error "topological pass found an unfinished pred"

(* --- live collector ------------------------------------------------------- *)

type collector = { mutable rev : Recorder.entry list }

let collector () = { rev = [] }

let observe c ~time event = c.rev <- { Recorder.time; event } :: c.rev

let collector_entries c = List.rev c.rev

let of_collector c = of_entries (collector_entries c)
