(* Metrics registry plus the derivation pass that folds a recorded event
   stream into counters / gauges / simulated-time histograms.  All
   enumeration is sorted so two identically-seeded runs render byte-identical
   summaries.

   Histograms are fixed-memory [Hdr] instances (1% log buckets), so a
   registry's footprint is bounded no matter how long the run: the vsmon
   series layer scrapes a live registry on every window without the cost
   growing with the number of recorded samples. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Hdr.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
  }

(* The registry's cell for a counter or gauge, created on first use: a
   caller that keeps the cell bumps it with no further lookup. *)
let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let gauge_cell t name =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.replace t.gauges name r;
      r

let incr ?(by = 1) t name =
  let r = counter_cell t name in
  r := !r + by

let set_gauge t name v = gauge_cell t name := v

let observe t name v =
  match Hashtbl.find_opt t.hists name with
  | Some h -> Hdr.record h v
  | None ->
      let h = Hdr.create () in
      Hdr.record h v;
      Hashtbl.replace t.hists name h

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

let hist t name = Hashtbl.find_opt t.hists name

let counters t =
  List.map
    (fun (k, r) -> (k, !r))
    (Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.counters)

let gauges t =
  List.map
    (fun (k, r) -> (k, !r))
    (Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.gauges)

let hists t = Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.hists

(* --- derivation from an event stream ------------------------------------- *)

module Int_tbl = Hashtbl.Make (Int)

(* A counter the fold bumps on every event of some kind: its name, and its
   registry cell once the first bump has bound it.  A slot that never fires
   leaves the counter absent. *)
type slot = { name : string; mutable cell : int ref option }

let slot name = { name; cell = None }

let slot_bump m s =
  match s.cell with
  | Some r -> r := !r + 1
  | None ->
      let r = counter_cell m s.name in
      r := !r + 1;
      s.cell <- Some r

(* Incremental derivation state.  [step] consumes one timestamped event and
   updates the registry in place, so the same fold serves both the
   end-of-run [of_entries] pass and the vsmon series sink, which feeds
   events as the simulation emits them.

   The per-event cells (the last-event gauge, the wire counters and each
   node's mode-send counter) are bound on first use and bumped directly
   after that, so a Full-level stream costs no string building or hashing
   per event. *)
type deriv = {
  metrics : t;
  (* the [net.sends.mode.<mode>] slot of each node's current app mode; a
     node with no Mode_change yet counts under mode "N" *)
  node_mode : slot Int_tbl.t;
  default_mode_sends : slot;
  sends : slot;
  recvs : slot;
  drops : slot;
  dups : slot;
  mutable last_event_time : float ref option;
  (* first propose time per view id, for install latency *)
  proposed : float Event.Vid_tbl.t;
  (* first flush-ack per (proc, view id), for flush stall *)
  flushed : float Event.Proc_vid_tbl.t;
  (* open tasks per (proc, task kind) *)
  tasks : float Event.Proc_str_tbl.t;
}

let mode_sends_slot mode = slot ("net.sends.mode." ^ mode)

let deriv_create () =
  {
    metrics = create ();
    node_mode = Int_tbl.create 8;
    default_mode_sends = mode_sends_slot "N";
    sends = slot "net.sends";
    recvs = slot "net.recvs";
    drops = slot "net.drops";
    dups = slot "net.dups";
    last_event_time = None;
    proposed = Event.Vid_tbl.create 16;
    flushed = Event.Proc_vid_tbl.create 32;
    tasks = Event.Proc_str_tbl.create 8;
  }

let deriv_metrics d = d.metrics

let step d ~time (event : Event.t) =
  let m = d.metrics in
  (match d.last_event_time with
  | Some r -> r := time
  | None ->
      let r = gauge_cell m "run.last-event-time" in
      r := time;
      d.last_event_time <- Some r);
  match event with
  | Event.Send { src; _ } ->
      slot_bump m d.sends;
      slot_bump m
        (match Int_tbl.find_opt d.node_mode src.node with
        | Some s -> s
        | None -> d.default_mode_sends)
  | Event.Recv _ -> slot_bump m d.recvs
  | Event.Drop { reason; _ } ->
      slot_bump m d.drops;
      incr m ("net.drops." ^ reason)
  | Event.Dup _ -> slot_bump m d.dups
  | Event.Retransmit { count; peer; _ } ->
      incr ~by:count m "vsync.retransmits";
      if peer then incr ~by:count m "vsync.retransmits.peer"
  | Event.Backoff _ -> incr m "vsync.backoffs"
  | Event.Suspect _ -> incr m "fd.suspects"
  | Event.Unsuspect _ -> incr m "fd.unsuspects"
  | Event.Propose { vid; _ } ->
      incr m "gms.proposes";
      if not (Event.Vid_tbl.mem d.proposed vid) then
        Event.Vid_tbl.replace d.proposed vid time
  | Event.Flush { proc; vid; _ } ->
      incr m "gms.flushes";
      let key = (proc, vid) in
      if not (Event.Proc_vid_tbl.mem d.flushed key) then
        Event.Proc_vid_tbl.replace d.flushed key time
  | Event.Install { proc; vid; sync; _ } ->
      incr m "gms.installs";
      observe m "view.sync-deliveries" (float_of_int sync);
      (match Event.Vid_tbl.find_opt d.proposed vid with
      | Some t0 -> observe m "view.install-latency" (time -. t0)
      | None -> ());
      let fkey = (proc, vid) in
      (match Event.Proc_vid_tbl.find_opt d.flushed fkey with
      | Some t0 ->
          Event.Proc_vid_tbl.remove d.flushed fkey;
          observe m "view.flush-stall" (time -. t0)
      | None -> ())
  | Event.Eview _ -> incr m "evs.eviews"
  | Event.Mode_change { proc; into_mode; cause; _ } ->
      incr m ("mode.transitions." ^ cause);
      Int_tbl.replace d.node_mode proc.node (mode_sends_slot into_mode)
  | Event.Settle _ -> incr m "app.settles"
  | Event.Task_start { proc; task; _ } ->
      let key = (proc, task) in
      if not (Event.Proc_str_tbl.mem d.tasks key) then
        Event.Proc_str_tbl.replace d.tasks key time
  | Event.Task_done { proc; task; _ } ->
      let key = (proc, task) in
      (match Event.Proc_str_tbl.find_opt d.tasks key with
      | Some t0 ->
          Event.Proc_str_tbl.remove d.tasks key;
          observe m ("task." ^ task) (time -. t0)
      | None -> ())
  | Event.Crash _ -> incr m "faults.crashes"
  | Event.Partition _ -> incr m "faults.partitions"
  | Event.Heal -> incr m "faults.heals"
  | Event.Corrupt _ -> incr m "faults.corruptions"
  | Event.Quarantine _ -> ()
  | Event.Note _ -> ()

let of_entries (entries : Recorder.entry list) =
  let d = deriv_create () in
  List.iter (fun (e : Recorder.entry) -> step d ~time:e.time e.event) entries;
  d.metrics

(* --- rendering ----------------------------------------------------------- *)

let to_tables t =
  let acc = ref [] in
  let cs = counters t in
  if cs <> [] then begin
    let tbl =
      Vs_stats.Table.create ~title:"metrics: counters"
        ~columns:[ "metric"; "count" ]
    in
    List.iter
      (fun (k, v) -> Vs_stats.Table.add_row tbl [ k; Vs_stats.Table.fint v ])
      cs;
    acc := tbl :: !acc
  end;
  let gs = gauges t in
  if gs <> [] then begin
    let tbl =
      Vs_stats.Table.create ~title:"metrics: gauges"
        ~columns:[ "metric"; "value" ]
    in
    List.iter
      (fun (k, v) ->
        Vs_stats.Table.add_row tbl [ k; Vs_stats.Table.ffloat ~decimals:4 v ])
      gs;
    acc := tbl :: !acc
  end;
  let hs = hists t in
  if hs <> [] then begin
    let tbl =
      Vs_stats.Table.create ~title:"metrics: histograms (simulated time)"
        ~columns:[ "metric"; "n"; "p50"; "p95"; "p99"; "max" ]
    in
    List.iter
      (fun (k, h) ->
        Vs_stats.Table.add_row tbl
          [
            k;
            Vs_stats.Table.fint (Hdr.count h);
            Vs_stats.Table.ffloat ~decimals:4 (Hdr.percentile h 0.5);
            Vs_stats.Table.ffloat ~decimals:4 (Hdr.percentile h 0.95);
            Vs_stats.Table.ffloat ~decimals:4 (Hdr.percentile h 0.99);
            Vs_stats.Table.ffloat ~decimals:4 (Hdr.max_value h);
          ])
      hs;
    acc := tbl :: !acc
  end;
  List.rev !acc

let to_text t =
  String.concat "\n" (List.map Vs_stats.Table.to_string (to_tables t))

let to_json t =
  let hist_json h =
    Json.Obj
      [
        ("n", Json.Int (Hdr.count h));
        ("p50", Json.Float (Hdr.percentile h 0.5));
        ("p95", Json.Float (Hdr.percentile h 0.95));
        ("p99", Json.Float (Hdr.percentile h 0.99));
        ("max", Json.Float (Hdr.max_value h));
        ("mean", Json.Float (Hdr.mean h));
      ]
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)) );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (hists t)) );
    ]
