(* Critical-path extraction (see critpath.mli for the model).

   The install decomposition is anchored on exactly the same scan as
   Stall.of_entries — first Propose per view, first own Flush per
   (proc, view), newest Flush per view, same clamping — so the
   flush-ack-wait and stability-wait components equal the vsmon stall
   attribution to the bit.  Only the propose phase [t_prop, t_self] is
   refined further, by the backward DAG walk. *)

module Hashtblx = Vs_util.Hashtblx

type seg_kind =
  | Local_compute
  | Network_flight
  | Retransmit_wait
  | Flush_ack_wait
  | Stability_wait
  | Suspect_timeout

let seg_kind_to_string = function
  | Local_compute -> "local-compute"
  | Network_flight -> "network-flight"
  | Retransmit_wait -> "retransmit-wait"
  | Flush_ack_wait -> "flush-ack-wait"
  | Stability_wait -> "stability-wait"
  | Suspect_timeout -> "suspect-timeout"

let all_seg_kinds =
  [
    Local_compute;
    Network_flight;
    Retransmit_wait;
    Flush_ack_wait;
    Stability_wait;
    Suspect_timeout;
  ]

let kind_index = function
  | Local_compute -> 0
  | Network_flight -> 1
  | Retransmit_wait -> 2
  | Flush_ack_wait -> 3
  | Stability_wait -> 4
  | Suspect_timeout -> 5

let n_kinds = List.length all_seg_kinds

type segment = {
  s_kind : seg_kind;
  s_from : float;
  s_until : float;
  s_proc : Event.proc;
  s_link : Event.proc option;
}

let seg_duration s = s.s_until -. s.s_from

let seg_owner s =
  match s.s_link with
  | None -> Event.proc_to_string s.s_proc
  | Some dst ->
      Event.proc_to_string s.s_proc ^ "->" ^ Event.proc_to_string dst

type install_path = {
  ip_proc : Event.proc;
  ip_vid : Event.vid;
  ip_install_time : float;
  ip_latency : float;
  ip_segments : segment list;
  ip_straggler : Event.proc option;
}

type view_row = {
  vr_vid : Event.vid;
  vr_installs : int;
  vr_latency : float;
  vr_kind_seconds : (seg_kind * float) list;
  vr_straggler : (Event.proc * float) option;
}

type op_stats = {
  o_ops : int;
  o_latency_total : float;
  o_latency_max : float;
  o_kind_seconds : (seg_kind * float) list;
  o_retransmit_delayed : int;
  o_slowest : (Event.msg * float) option;
}

type t = {
  installs : install_path list;
  views : view_row list;
  ops : op_stats;
  straggler : (Event.proc * float) option;
}

(* --- backward walk -------------------------------------------------------- *)

(* Latest-finishing predecessor: max time, ties to the max stream id —
   deterministic whatever order edges were registered in. *)
let best_pred dag cur =
  let nodes = Causal.nodes dag in
  List.fold_left
    (fun best (j, k) ->
      match best with
      | None -> Some (j, k)
      | Some (j', _) ->
          let c =
            Float.compare nodes.(j).Causal.time nodes.(j').Causal.time
          in
          if c > 0 || (c = 0 && j > j') then Some (j, k) else best)
    None (Causal.preds dag cur)

let classify dag ~cur ~pred ~edge ~s_from ~s_until ~fallback =
  let nodes = Causal.nodes dag in
  let owner_of ev =
    match Causal.actor ev with Some p -> p | None -> fallback
  in
  match (edge : Causal.edge_kind) with
  | Causal.Message -> (
      (* [cur] consumed a wire copy; the hop is charged to the sender. *)
      match nodes.(cur).Causal.event with
      | Event.Recv { src; dst; kind; _ } | Event.Drop { src; dst; kind; _ } ->
          let s_kind =
            if kind = "retransmit" then Retransmit_wait else Network_flight
          in
          { s_kind; s_from; s_until; s_proc = src; s_link = Some dst }
      | ev ->
          {
            s_kind = Network_flight;
            s_from;
            s_until;
            s_proc = owner_of ev;
            s_link = None;
          })
  | Causal.Barrier -> (
      match nodes.(pred).Causal.event with
      | Event.Flush { proc; _ } ->
          (* Waiting on [proc]'s flush-ack to clear the sync barrier. *)
          { s_kind = Flush_ack_wait; s_from; s_until; s_proc = proc; s_link = None }
      | ev ->
          (* Propose -> Flush: the member draining and flushing — its own
             work, not a wait on anyone else. *)
          ignore ev;
          {
            s_kind = Local_compute;
            s_from;
            s_until;
            s_proc = owner_of nodes.(cur).Causal.event;
            s_link = None;
          })
  | Causal.Program -> (
      match nodes.(pred).Causal.event with
      | Event.Suspect { proc; _ } ->
          (* The gap after a suspicion is the detector timeout driving the
             change. *)
          { s_kind = Suspect_timeout; s_from; s_until; s_proc = proc; s_link = None }
      | ev ->
          {
            s_kind = Local_compute;
            s_from;
            s_until;
            s_proc = owner_of ev;
            s_link = None;
          })

(* Chronological segments tiling [stop_time, time(start)] exactly: the
   recorded stream is time-ordered, so every predecessor's timestamp is <=
   the current node's and consecutive segments share their boundary. *)
let walk dag ~stop_time ~start ~fallback =
  let nodes = Causal.nodes dag in
  let rec go cur acc =
    let tcur = nodes.(cur).Causal.time in
    if tcur <= stop_time then acc
    else
      match best_pred dag cur with
      | None ->
          (* Frontier root inside the window: residual local work. *)
          let p =
            match Causal.actor nodes.(cur).Causal.event with
            | Some p -> p
            | None -> fallback
          in
          {
            s_kind = Local_compute;
            s_from = stop_time;
            s_until = tcur;
            s_proc = p;
            s_link = None;
          }
          :: acc
      | Some (j, edge) ->
          let tj = nodes.(j).Causal.time in
          let s_from = Float.max stop_time tj in
          let acc =
            if tcur > s_from then
              classify dag ~cur ~pred:j ~edge ~s_from ~s_until:tcur ~fallback
              :: acc
            else acc
          in
          go j acc
  in
  go start []

(* --- charge bookkeeping --------------------------------------------------- *)

let charge tbl (p : Event.proc) seconds =
  let prev =
    match Hashtbl.find_opt tbl p with Some c -> c | None -> 0.
  in
  Hashtbl.replace tbl p (prev +. seconds)

let charge_segments tbl segs =
  List.iter (fun s -> charge tbl s.s_proc (seg_duration s)) segs

(* Deterministic argmax: bindings sorted by proc, strict improvement keeps
   the smallest process on ties. *)
let top_charge tbl =
  List.fold_left
    (fun best (p, c) ->
      match best with
      | Some (_, c') when c <= c' -> best
      | _ -> Some (p, c))
    None
    (Hashtblx.sorted_bindings ~cmp:Event.compare_proc tbl)

let kind_sums segs =
  let a = Array.make n_kinds 0. in
  List.iter
    (fun s -> a.(kind_index s.s_kind) <- a.(kind_index s.s_kind) +. seg_duration s)
    segs;
  a

let kind_list a = List.map (fun k -> (k, a.(kind_index k))) all_seg_kinds

(* --- the full analysis ---------------------------------------------------- *)

let of_dag dag =
  let nodes = Causal.nodes dag in
  let n = Array.length nodes in
  (* Stall-identical anchors, plus the node ids the walks start from. *)
  let proposed : float Event.Vid_tbl.t = Event.Vid_tbl.create 16 in
  let self_flush : (float * int) Event.Proc_vid_tbl.t =
    Event.Proc_vid_tbl.create 32
  in
  let last_flush : (float * Event.proc) Event.Vid_tbl.t =
    Event.Vid_tbl.create 16
  in
  (* per-op endpoints: first Send node, last Recv node *)
  let op_first : (Event.msg, float * int) Hashtbl.t = Hashtbl.create 256 in
  let op_last : (Event.msg, float * int) Hashtbl.t = Hashtbl.create 256 in
  let global_charges : (Event.proc, float) Hashtbl.t = Hashtbl.create 16 in
  let per_view : (Event.vid, view_row * (Event.proc, float) Hashtbl.t) Hashtbl.t
      =
    Hashtbl.create 16
  in
  let rev_installs = ref [] in
  for i = 0 to n - 1 do
    let time = nodes.(i).Causal.time in
    match nodes.(i).Causal.event with
    | Event.Propose { vid; _ } ->
        if not (Event.Vid_tbl.mem proposed vid) then
          Event.Vid_tbl.replace proposed vid time
    | Event.Flush { proc; vid; _ } ->
        let sk = (proc, vid) in
        if not (Event.Proc_vid_tbl.mem self_flush sk) then
          Event.Proc_vid_tbl.replace self_flush sk (time, i);
        Event.Vid_tbl.replace last_flush vid (time, proc)
    | Event.Install { proc; vid; _ } -> (
        match Event.Vid_tbl.find_opt proposed vid with
        | None -> () (* truncated recording: no propose retained *)
        | Some t_prop ->
            let t_install = time in
            let t_self_raw, flush_node =
              match Event.Proc_vid_tbl.find_opt self_flush (proc, vid) with
              | Some (t, j) -> (t, Some j)
              | None -> (t_prop, None)
            in
            let t_last_raw, last_proc =
              match Event.Vid_tbl.find_opt last_flush vid with
              | Some (t, p) -> (max t t_self_raw, Some p)
              | None -> (t_self_raw, None)
            in
            let clamp x = min t_install (max t_prop x) in
            let t_self = clamp t_self_raw in
            let t_last = max (clamp t_last_raw) t_self in
            (* propose phase: refined by the DAG walk from the installer's
               own flush-ack (single local segment when there is none or the
               clamp moved the anchor) *)
            let propose_segs =
              if t_self <= t_prop then []
              else
                match flush_node with
                | Some j when t_self = t_self_raw ->
                    walk dag ~stop_time:t_prop ~start:j ~fallback:proc
                | Some _ | None ->
                    [
                      {
                        s_kind = Local_compute;
                        s_from = t_prop;
                        s_until = t_self;
                        s_proc = proc;
                        s_link = None;
                      };
                    ]
            in
            let flush_segs =
              if t_last <= t_self then []
              else
                [
                  {
                    s_kind = Flush_ack_wait;
                    s_from = t_self;
                    s_until = t_last;
                    s_proc =
                      (match last_proc with Some p -> p | None -> proc);
                    s_link = None;
                  };
                ]
            in
            let stability_segs =
              if t_install <= t_last then []
              else
                [
                  {
                    s_kind = Stability_wait;
                    s_from = t_last;
                    s_until = t_install;
                    (* the coordinator's stability decision + install
                       delivery *)
                    s_proc = vid.Event.proposer;
                    s_link = None;
                  };
                ]
            in
            let segs = propose_segs @ flush_segs @ stability_segs in
            let charges : (Event.proc, float) Hashtbl.t = Hashtbl.create 8 in
            charge_segments charges segs;
            charge_segments global_charges segs;
            let ip =
              {
                ip_proc = proc;
                ip_vid = vid;
                ip_install_time = t_install;
                ip_latency = t_install -. t_prop;
                ip_segments = segs;
                ip_straggler =
                  (match top_charge charges with
                  | Some (p, _) -> Some p
                  | None -> None);
              }
            in
            rev_installs := ip :: !rev_installs;
            let row, vcharges =
              match Hashtbl.find_opt per_view vid with
              | Some rc -> rc
              | None ->
                  ( {
                      vr_vid = vid;
                      vr_installs = 0;
                      vr_latency = 0.;
                      vr_kind_seconds = [];
                      vr_straggler = None;
                    },
                    Hashtbl.create 8 )
            in
            charge_segments vcharges segs;
            let sums = kind_sums segs in
            let merged =
              match row.vr_kind_seconds with
              | [] -> kind_list sums
              | prev ->
                  List.map2
                    (fun (k, v) (_, v') -> (k, v +. v'))
                    prev (kind_list sums)
            in
            Hashtbl.replace per_view vid
              ( {
                  row with
                  vr_installs = row.vr_installs + 1;
                  vr_latency = row.vr_latency +. ip.ip_latency;
                  vr_kind_seconds = merged;
                },
                vcharges ))
    | Event.Send { msg = Some m; _ } ->
        if not (Hashtbl.mem op_first m) then Hashtbl.replace op_first m (time, i)
    | Event.Recv { msg = Some m; _ } -> Hashtbl.replace op_last m (time, i)
    | _ -> ()
  done;
  let installs = List.rev !rev_installs in
  let views =
    List.map
      (fun (_, (row, vcharges)) ->
        { row with vr_straggler = top_charge vcharges })
      (Hashtblx.sorted_bindings ~cmp:Event.compare_vid per_view)
  in
  (* per-op walks, aggregated in identity order *)
  let op_kind = Array.make n_kinds 0. in
  let o_ops = ref 0 in
  let o_total = ref 0. in
  let o_max = ref 0. in
  let o_retrans = ref 0 in
  let o_slowest = ref None in
  List.iter
    (fun (m, (t_send, _)) ->
      match Hashtbl.find_opt op_last m with
      | None -> () (* never delivered: no applied op to attribute *)
      | Some (t_recv, last_node) ->
          let latency = t_recv -. t_send in
          let segs =
            walk dag ~stop_time:t_send ~start:last_node
              ~fallback:m.Event.origin
          in
          let sums = kind_sums segs in
          Array.iteri (fun k v -> op_kind.(k) <- op_kind.(k) +. v) sums;
          incr o_ops;
          o_total := !o_total +. latency;
          if sums.(kind_index Retransmit_wait) > 0. then incr o_retrans;
          if latency > !o_max then begin
            o_max := latency;
            o_slowest := Some (m, latency)
          end)
    (Hashtblx.sorted_bindings ~cmp:Event.compare_msg op_first);
  {
    installs;
    views;
    ops =
      {
        o_ops = !o_ops;
        o_latency_total = !o_total;
        o_latency_max = !o_max;
        o_kind_seconds = kind_list op_kind;
        o_retransmit_delayed = !o_retrans;
        o_slowest = !o_slowest;
      };
    straggler = top_charge global_charges;
  }

let of_entries entries = of_dag (Causal.of_entries entries)

let path_sum ip =
  List.fold_left (fun acc s -> acc +. seg_duration s) 0. ip.ip_segments

(* Segment sums are telescoping float sums, so "exact" means within a
   relative 1e-9 — the same tolerance the test suite asserts with. *)
let default_tol = 1e-9

let close ~tol a b =
  Float.abs (a -. b)
  <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let kind_seconds t =
  let a = Array.make n_kinds 0. in
  List.iter
    (fun ip ->
      List.iter
        (fun s ->
          a.(kind_index s.s_kind) <- a.(kind_index s.s_kind) +. seg_duration s)
        ip.ip_segments)
    t.installs;
  kind_list a

let consistent_with_stall ?(tol = default_tol) t attrs =
  let sums_ok =
    List.for_all (fun ip -> close ~tol (path_sum ip) ip.ip_latency) t.installs
  in
  let kind k =
    List.fold_left
      (fun acc (k', v) -> if k' = k then acc +. v else acc)
      0. (kind_seconds t)
  in
  let flush_attr, stab_attr =
    List.fold_left
      (fun (f, s) (a : Stall.attr) ->
        (f +. a.Stall.a_flush_wait, s +. a.Stall.a_stability_wait))
      (0., 0.) attrs
  in
  sums_ok
  && close ~tol (kind Flush_ack_wait) flush_attr
  && close ~tol (kind Stability_wait) stab_attr

(* --- rendering ------------------------------------------------------------ *)

let straggler_repr = function
  | None -> "-"
  | Some (p, c) ->
      Printf.sprintf "%s (%.4fs)" (Event.proc_to_string p) c

let to_table t =
  let table =
    Vs_stats.Table.create
      ~title:
        "critical path: per-view install latency decomposition (seconds on \
         the path)"
      ~columns:
        ([ "view"; "installs"; "latency (s)" ]
        @ List.map seg_kind_to_string all_seg_kinds
        @ [ "straggler" ])
  in
  List.iter
    (fun vr ->
      Vs_stats.Table.add_row table
        ([
           Event.vid_to_string vr.vr_vid;
           Vs_stats.Table.fint vr.vr_installs;
           Vs_stats.Table.ffloat ~decimals:4 vr.vr_latency;
         ]
        @ List.map
            (fun (_, v) -> Vs_stats.Table.ffloat ~decimals:4 v)
            vr.vr_kind_seconds
        @ [ straggler_repr vr.vr_straggler ]))
    t.views;
  table

let kind_fields sums =
  List.map
    (fun (k, v) -> (seg_kind_to_string k, Json.Float v))
    sums

let segment_json s =
  Json.Obj
    [
      ("kind", Json.Str (seg_kind_to_string s.s_kind));
      ("from", Json.Float s.s_from);
      ("until", Json.Float s.s_until);
      ("seconds", Json.Float (seg_duration s));
      ("owner", Json.Str (seg_owner s));
    ]

let install_json ip =
  Json.Obj
    [
      ("proc", Json.Str (Event.proc_to_string ip.ip_proc));
      ("view", Json.Str (Event.vid_to_string ip.ip_vid));
      ("time", Json.Float ip.ip_install_time);
      ("latency_s", Json.Float ip.ip_latency);
      ( "straggler",
        match ip.ip_straggler with
        | Some p -> Json.Str (Event.proc_to_string p)
        | None -> Json.Null );
      ("segments", Json.Arr (List.map segment_json ip.ip_segments));
    ]

let view_json vr =
  Json.Obj
    ([
       ("id", Json.Str (Event.vid_to_string vr.vr_vid));
       ("installs", Json.Int vr.vr_installs);
       ("latency_s", Json.Float vr.vr_latency);
     ]
    @ kind_fields vr.vr_kind_seconds
    @ [
        ( "straggler",
          match vr.vr_straggler with
          | Some (p, _) -> Json.Str (Event.proc_to_string p)
          | None -> Json.Null );
        ( "straggler_s",
          match vr.vr_straggler with
          | Some (_, c) -> Json.Float c
          | None -> Json.Null );
      ])

let ops_json o =
  Json.Obj
    ([
       ("ops", Json.Int o.o_ops);
       ("latency_total_s", Json.Float o.o_latency_total);
       ("latency_max_s", Json.Float o.o_latency_max);
       ("retransmit_delayed", Json.Int o.o_retransmit_delayed);
       ( "slowest",
         match o.o_slowest with
         | Some (m, _) -> Json.Str (Event.msg_to_string m)
         | None -> Json.Null );
     ]
    @ kind_fields o.o_kind_seconds)

let to_json t =
  Json.Obj
    [
      ("views", Json.Arr (List.map view_json t.views));
      ("installs", Json.Arr (List.map install_json t.installs));
      ("ops", ops_json t.ops);
      ( "straggler",
        match t.straggler with
        | Some (p, _) -> Json.Str (Event.proc_to_string p)
        | None -> Json.Null );
      ( "straggler_s",
        match t.straggler with
        | Some (_, c) -> Json.Float c
        | None -> Json.Null );
    ]
