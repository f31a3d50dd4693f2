(* vsbench — one benchmark for the view-synchrony stack.

   Four workloads, each single-threaded and driven only through public
   functions of the libraries:

   - kv-unbatched / kv-pipelined: six Kv_store replicas (Lww) under an
     open-loop Poisson put load from App_fleet.open_loop, with the endpoint's
     batching off, or on with an 8-round pipeline;
   - churn-check: quick Campaign.generate specs run and checked by
     Campaign.run, both protocols, at the default Protocol recording level;
   - trace-analyse: full-length campaigns recorded at Full level and folded
     by the lib/obs analyses the way vscli path / explain / metrics do.

   A run executes a workload's fixed blocks (sub-seeds derived from --seed)
   and then repeats them until the requested wall seconds have passed.
   Simulated-time metrics and counts come from the seed alone, so every
   repeat must reproduce its block exactly, and the run fails when one does
   not.  Wall-clock metrics are normalized by a calibration loop against the
   host's drifting speed (see Clock).

   With --trace 1 the run adds one traced pass over the blocks.  It keeps an
   in-memory span ledger around the public calls (self time = span minus
   its children), reads each layer's public counters, and writes the ledger
   out at the end; the per-layer metrics come from there. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Evs = Evs_core.Evs
module Mode = Evs_core.Mode
module Kv = Vs_apps.Kv_store
module Go = Vs_apps.Group_object
module App_fleet = Vs_exp.App_fleet
module Recorder = Vs_obs.Recorder
module Metrics = Vs_obs.Metrics
module Hdr = Vs_obs.Hdr
module Stall = Vs_obs.Stall
module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Lineage = Vs_obs.Lineage
module Driver = Vs_harness.Driver
module Oracle = Vs_harness.Oracle
module Vsync_cluster = Vs_harness.Vsync_cluster
module Evs_cluster = Vs_harness.Evs_cluster
module Campaign = Vs_check.Campaign
module Explain_run = Vs_check.Explain_run

let now = Unix.gettimeofday

(* ---------- span ledger ---------- *)

module Ledger = struct
  let on = ref false
  let names = ref (Array.make 4096 "")
  let starts = ref (Array.make 4096 0.)
  let stops = ref (Array.make 4096 0.)
  let parents = ref (Array.make 4096 (-1))
  let n = ref 0
  let stack = Array.make 64 (-1)
  let depth = ref 0

  let grow () =
    let cap = Array.length !names in
    let ext a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    names := ext !names "";
    starts := ext !starts 0.;
    stops := ext !stops 0.;
    parents := ext !parents (-1)

  let reset () =
    n := 0;
    depth := 0

  (* Open a span; -1 when tracing is off, so the untraced path pays one
     branch and no allocation. *)
  let enter name =
    if not !on then -1
    else begin
      if !n = Array.length !names then grow ();
      let id = !n in
      incr n;
      !names.(id) <- name;
      !parents.(id) <- (if !depth = 0 then -1 else stack.(!depth - 1));
      stack.(!depth) <- id;
      incr depth;
      !starts.(id) <- now ();
      id
    end

  let leave id =
    if id >= 0 then begin
      !stops.(id) <- now ();
      decr depth
    end

  let span name f =
    let id = enter name in
    match f () with
    | v ->
        leave id;
        v
    | exception e ->
        leave id;
        raise e

  type agg = { mutable count : int; mutable total : float; mutable self : float }

  (* Per span name: count, total time, self time (total minus the time its
     direct children cover), sorted by name. *)
  let aggregate () =
    let child = Array.make (max 1 !n) 0. in
    for i = 0 to !n - 1 do
      let p = !parents.(i) in
      if p >= 0 then child.(p) <- child.(p) +. (!stops.(i) -. !starts.(i))
    done;
    let tbl = Hashtbl.create 32 in
    for i = 0 to !n - 1 do
      let d = !stops.(i) -. !starts.(i) in
      let a =
        match Hashtbl.find_opt tbl !names.(i) with
        | Some a -> a
        | None ->
            let a = { count = 0; total = 0.; self = 0. } in
            Hashtbl.replace tbl !names.(i) a;
            a
      in
      a.count <- a.count + 1;
      a.total <- a.total +. d;
      a.self <- a.self +. (d -. child.(i))
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let self_of aggs name =
    match List.assoc_opt name aggs with Some a -> a.self | None -> 0.

  let total_of aggs name =
    match List.assoc_opt name aggs with Some a -> a.total | None -> 0.

  let count_of aggs name =
    match List.assoc_opt name aggs with Some a -> a.count | None -> 0

  (* Aggregates first, then one line per span: id, parent, name, start and
     duration in microseconds from the first span. *)
  let write path =
    let oc = open_out path in
    let t0 = if !n > 0 then !starts.(0) else 0. in
    List.iter
      (fun (k, a) ->
        Printf.fprintf oc "# %s count=%d total_s=%.9f self_s=%.9f\n" k a.count
          a.total a.self)
      (aggregate ());
    for i = 0 to !n - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%.3f\t%.3f\n" i !parents.(i) !names.(i)
        ((!starts.(i) -. t0) *. 1e6)
        ((!stops.(i) -. !starts.(i)) *. 1e6)
    done;
    close_out oc
end

(* ---------- GC ---------- *)

type gc_snap = { minor : float; promoted : float; majors : int }

let gc_snap () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    majors = b.majors - a.majors;
  }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Time the main domain spends inside any runtime (GC) phase, from OCaml
   5's Runtime_events ring; started only by traced runs. *)
module Gc_pause = struct
  let cursor = ref None
  let depth = ref 0
  let since = ref 0L
  let total_ns = ref 0L
  let lost = ref 0
  let active = ref false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts _ ->
        if dom = 0 then begin
          if !depth = 0 then since := Runtime_events.Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun dom ts _ ->
        if dom = 0 && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total_ns :=
              Int64.add !total_ns
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !since)
        end)
      ~lost_events:(fun _ k -> lost := !lost + k)
      ()

  let start () =
    Runtime_events.start ();
    active := true;
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let seconds () =
    poll ();
    Int64.to_float !total_ns /. 1e9
end

(* ---------- statistics ---------- *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let rank p n = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(rank p n - 1)

(* The same rank rule over the occupied buckets of several Hdr histograms
   of one layout, as one histogram of all their samples would report it.
   Runs keep only the bucket lists: a histogram's fixed bucket array is
   tens of kilobytes, which would show in heap_peak_mb. *)
let pooled_pct buckets p =
  let bs =
    List.concat buckets |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 bs in
  if n = 0 then 0.
  else
    let r = rank p n in
    let rec walk acc = function
      | (v, c) :: rest -> if acc + c >= r then v else walk (acc + c) rest
      | [] -> 0.
    in
    walk 0 bs

(* Several bucket lists as one, equal upper bounds summed. *)
let merge_buckets buckets =
  List.concat buckets
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.fold_left
       (fun acc (v, c) ->
         match acc with
         | (v', c') :: rest when Float.equal v v' -> (v, c + c') :: rest
         | _ -> (v, c) :: acc)
       []
  |> List.rev

let pooled_count buckets =
  List.fold_left (fun acc bs -> acc + List.fold_left (fun a (_, c) -> a + c) 0 bs) 0 buckets

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- per-layer counters ---------- *)

let ep_zero =
  {
    Endpoint.views_installed = 0;
    proposals_started = 0;
    data_sent = 0;
    delivered = 0;
    sync_delivered = 0;
    stale_dropped = 0;
    to_dropped = 0;
    nacks_sent = 0;
    retransmits = 0;
    peer_retransmits = 0;
    stabilized = 0;
    ctl_retries = 0;
    ctl_abandoned = 0;
    batches_sent = 0;
  }

let ep_combine f (a : Endpoint.stats) (b : Endpoint.stats) =
  {
    Endpoint.views_installed = f a.views_installed b.views_installed;
    proposals_started = f a.proposals_started b.proposals_started;
    data_sent = f a.data_sent b.data_sent;
    delivered = f a.delivered b.delivered;
    sync_delivered = f a.sync_delivered b.sync_delivered;
    stale_dropped = f a.stale_dropped b.stale_dropped;
    to_dropped = f a.to_dropped b.to_dropped;
    nacks_sent = f a.nacks_sent b.nacks_sent;
    retransmits = f a.retransmits b.retransmits;
    peer_retransmits = f a.peer_retransmits b.peer_retransmits;
    stabilized = f a.stabilized b.stabilized;
    ctl_retries = f a.ctl_retries b.ctl_retries;
    ctl_abandoned = f a.ctl_abandoned b.ctl_abandoned;
    batches_sent = f a.batches_sent b.batches_sent;
  }

let net_zero =
  { Net.sent = 0; delivered = 0; dropped = 0; duplicated = 0; bytes_sent = 0 }

let net_combine f (a : Net.stats) (b : Net.stats) =
  {
    Net.sent = f a.sent b.sent;
    delivered = f a.delivered b.delivered;
    dropped = f a.dropped b.dropped;
    duplicated = f a.duplicated b.duplicated;
    bytes_sent = f a.bytes_sent b.bytes_sent;
  }

(* Counts a traced round reads from the layers' public stats.  Summed over
   replicas (kv) or over campaigns (churn-check, trace-analyse). *)
type layer = {
  mutable l_events : int;
  mutable l_pending_max : int;
  mutable l_net : Net.stats;
  mutable l_ep : Endpoint.stats;
  mutable l_counters : (string * int) list;  (* Metrics counters, summed *)
  mutable l_flush : (float * int) list list;  (* view.flush-stall buckets *)
  mutable l_refused : int;
  mutable l_entries : int;  (* recorded stream entries *)
}

let layer_create () =
  {
    l_events = 0;
    l_pending_max = 0;
    l_net = net_zero;
    l_ep = ep_zero;
    l_counters = [];
    l_flush = [];
    l_refused = 0;
    l_entries = 0;
  }

let add_counters l m =
  l.l_counters <-
    List.fold_left
      (fun acc (k, v) ->
        match List.assoc_opt k acc with
        | Some x -> (k, x + v) :: List.remove_assoc k acc
        | None -> (k, v) :: acc)
      l.l_counters (Metrics.counters m)

let counter l k = Option.value ~default:0 (List.assoc_opt k l.l_counters)

(* ---------- host-speed calibration ---------- *)

(* A shared host's speed can drift by tens of percent over seconds to
   minutes as other tenants come and go.  A fixed loop is timed
   before each block, every quarter second inside it and after it; each
   measured segment is divided by the host factor (loop time / [cal_ref])
   around it, so wall-clock figures are seconds on a host where the loop
   takes [cal_ref].  The loop mixes what the workloads spend their time on:
   dependent loads through a small table (core speed), through a 16 MB
   table outside the OCaml heap (cache and memory contention), and
   short-lived allocation (the minor GC).  It promotes nothing and its
   tables are warmed before timing, so the workload's heap, major GC and
   cache footprint cannot leak into the factor. *)
let cal_ref = 0.0125
let cal_iters = 1_500_000
let cal_small = (1 lsl 13) - 1
let cal_big = (1 lsl 21) - 1

let cal_small_table =
  Array.init (cal_small + 1) (fun i -> ((i * 40503) + 12345) land cal_small)

let cal_big_table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cal_big + 1) in
  for i = 0 to cal_big do
    t.{i} <- ((i * 1_000_003) + 7) land cal_big
  done;
  t

let cal_loop iters =
  let j = ref 0 and k = ref 0 and x = ref 0 in
  for i = 1 to iters do
    j := cal_small_table.((!j + i) land cal_small);
    if i land 31 = 0 then k := cal_big_table.{(!k + i) land cal_big};
    let r = Sys.opaque_identity (!j, !k) in
    x := !x + fst r + snd r
  done;
  ignore (Sys.opaque_identity !x)

let calibrate () =
  cal_loop (cal_iters / 4);
  let t = now () in
  cal_loop cal_iters;
  now () -. t

module Clock = struct
  type t = {
    mutable cals : float list;  (* host factors, newest first *)
    mutable n : int;
    mutable last : float;
    mutable segs : (float * int) list;  (* raw time, factor index before *)
  }

  let sample c =
    let id = Ledger.enter "bench.calibrate" in
    let f = calibrate () /. cal_ref in
    Ledger.leave id;
    c.cals <- f :: c.cals;
    c.n <- c.n + 1;
    c.last <- now ()

  let create () =
    let c = { cals = []; n = 0; last = 0.; segs = [] } in
    sample c;
    c

  (* The factor a block's set-up, measured right after [create], is
     scaled by. *)
  let first c = List.nth c.cals (c.n - 1)

  let seg c dt =
    c.segs <- (dt, c.n - 1) :: c.segs;
    if now () -. c.last >= 0.25 then sample c

  (* Host-normalized segment times in order, and the median factor. *)
  let finish c =
    sample c;
    let cals = Array.of_list (List.rev c.cals) in
    ( Array.of_list
        (List.rev_map
           (fun (dt, k) -> dt /. ((cals.(k) +. cals.(k + 1)) /. 2.))
           c.segs),
      median (Array.to_list cals) )
end

(* ---------- blocks ---------- *)

(* A run executes a workload's fixed list of blocks — distinct sub-seeds
   derived from --seed — and then repeats blocks until the requested time
   has passed.  Simulated-time figures pool every block's first execution;
   each repeat must reproduce its block's fingerprint exactly. *)
type block = {
  b_setup_s : float;  (* host-normalized *)
  b_segs : float array;
      (* the measured window as host-normalized segments that are the same
         work on every execution of the block: sim-time chunks (kv) or
         campaigns *)
  b_raw_s : float;  (* the measured window, raw wall seconds *)
  b_factor : float;
  b_ops : int;  (* puts applied at their origin, or campaigns passed *)
  b_attempted : int;
  b_failed : int;
  b_correct : bool;  (* the workload's output checks all held *)
  b_lat : float array;  (* kv: sorted put latencies, seconds *)
  b_hists : (float * int) list list;
      (* campaigns: view.install-latency histogram buckets *)
  b_fingerprint : string;  (* every count and sim-time figure *)
  b_runs : (int * int * int) list;
      (* per campaign (events, installs, deliveries) *)
  b_gc : gc_snap;  (* allocation over the measured window *)
}

let layer_add_ep l ep = l.l_ep <- ep_combine ( + ) l.l_ep ep
let layer_add_net l net = l.l_net <- net_combine ( + ) l.l_net net

(* ---------- kv workloads ---------- *)

let kv_replicas = 6
let kv_clients = 300
let kv_rate = 8_000.
let kv_keys = 128
let kv_zipf = Some 1.1
let kv_drain = 1.0
let kv_chunk = 0.25

(* The injected busy-wait of the ledger self-test, in seconds per put. *)
let inject_put_s = ref 0.

let busy_wait s =
  let t = now () +. s in
  while now () < t do
    ()
  done

let kv_config ~batching =
  if batching then
    { Endpoint.default_config with Endpoint.batching = true; pipeline_depth = 8 }
  else Endpoint.default_config

let view_of kv = (Go.eview (Kv.obj kv)).Evs_core.E_view.view

let assembled fleet =
  match App_fleet.live fleet with
  | [] -> false
  | k0 :: _ as ks ->
      let v0 = view_of k0 in
      List.length ks = kv_replicas
      && List.length v0.View.members = kv_replicas
      && List.for_all
           (fun k ->
             Mode.equal (Kv.mode k) Mode.Normal && View.equal (view_of k) v0)
           ks

let state_of kv =
  List.map
    (fun key ->
      match Kv.get kv ~key with
      | Some (v, { Kv.counter; origin }) -> Printf.sprintf "%s=%s@%d.%d" key v counter origin
      | None -> key ^ "=?")
    (List.sort String.compare (Kv.keys kv))
  |> String.concat ";"

let ep_sum fleet =
  List.fold_left
    (fun acc kv -> ep_combine ( + ) acc (Evs.endpoint_stats (Go.evs (Kv.obj kv))))
    ep_zero (App_fleet.live fleet)

let kv_keys_arr = Array.init kv_keys (Printf.sprintf "k%d")

(* Fleet boot plus assembly to one Normal-mode view of all replicas: the kv
   workloads' set-up. *)
let kv_boot ~seed ~config ~on_apply =
  let sim = Sim.create ~seed:(Int64.of_int seed) () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init kv_replicas Fun.id in
  let make ~node ~inc =
    Kv.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
      ~on_apply:(on_apply sim node) ~config ~policy:Kv.Lww ()
  in
  let fleet =
    App_fleet.create ~sim ~nodes:universe ~make ~kill:Kv.kill
      ~is_alive:Kv.is_alive ~me:Kv.me
      ~history:(fun kv -> Go.history (Kv.obj kv))
  in
  while not (assembled fleet) do
    if Sim.now sim > 30. then failwith "kv fleet did not assemble in 30 s";
    ignore (Sim.run ~until:(Sim.now sim +. 0.01) sim)
  done;
  (sim, net, fleet)

let kv_setup_only ~seed ~batching =
  let t = now () in
  ignore
    (kv_boot ~seed ~config:(kv_config ~batching)
       ~on_apply:(fun _ _ ~origin:_ ~key:_ ~value:_ -> ()));
  now () -. t

let kv_block ~seed ~batching ~window ~traced ~layer =
  Ledger.on := traced;
  let round_id = Ledger.enter "round" in
  let clock = Clock.create () in
  (* Poisson arrivals: 20% above the mean is dozens of standard deviations
     out at these sizes. *)
  let cap = int_of_float (kv_rate *. window *. 1.2) + 1024 in
  let arrival = Array.make cap 0. in
  let applied_at = Array.make cap Float.nan in
  let accepted = Bytes.make cap '\000' in
  let applies = Array.make kv_replicas 0 in
  (* Each put's apply at its submitting replica closes its latency. *)
  let on_apply sim node ~origin ~key:_ ~value =
    applies.(node) <- applies.(node) + 1;
    if origin = node then
      match int_of_string_opt value with
      | Some op -> applied_at.(op) <- Sim.now sim
      | None -> ()
  in
  let t_setup = now () in
  let sim, net, fleet =
    Ledger.span "kv.setup" (fun () ->
        kv_boot ~seed ~config:(kv_config ~batching) ~on_apply)
  in
  let setup_s = (now () -. t_setup) /. Clock.first clock in
  let t0 = Sim.now sim in
  let arrivals_rng = Sim.fork_rng sim in
  let key_of =
    Vs_exp.Exp_throughput.make_key_sampler ~rng:(Sim.fork_rng sim)
      ~keys:kv_keys ~zipf:kv_zipf
  in
  let submit kv ~client:_ ~op =
    if op >= cap then invalid_arg "kv_block: arrivals exceed capacity";
    arrival.(op) <- Sim.now sim;
    let key = kv_keys_arr.(key_of ()) in
    let value = string_of_int op in
    if traced then
      layer.l_pending_max <- max layer.l_pending_max (Sim.pending sim);
    if !Gc_pause.active && op land 255 = 0 then Gc_pause.poll ();
    let id = Ledger.enter "kv_store.put" in
    let r = Kv.put kv ~key ~value in
    if !inject_put_s > 0. then busy_wait !inject_put_s;
    Ledger.leave id;
    match r with
    | Ok () ->
        Bytes.set accepted op '\001';
        true
    | Error `Not_serving -> false
  in
  let load =
    App_fleet.open_loop fleet sim ~rng:arrivals_rng ~start:t0
      ~until:(t0 +. window) ~rate:kv_rate ~clients:kv_clients ~submit
  in
  let ev0 = Sim.events_processed sim in
  let net0 = Net.stats net in
  let ep0 = ep_sum fleet in
  let gc0 = gc_snap () in
  let horizon = t0 +. window +. kv_drain in
  let raw = ref 0. in
  for i = 1 to int_of_float (Float.ceil ((window +. kv_drain) /. kv_chunk)) do
    let c = now () in
    let run_id = Ledger.enter "sim.run" in
    ignore
      (Sim.run
         ~until:(Float.min horizon (t0 +. (float_of_int i *. kv_chunk)))
         sim);
    Ledger.leave run_id;
    let dt = now () -. c in
    raw := !raw +. dt;
    Clock.seg clock dt
  done;
  let gc = gc_delta gc0 (gc_snap ()) in
  let segs, factor = Clock.finish clock in
  let check_id = Ledger.enter "kv.check" in
  let events = Sim.events_processed sim - ev0 in
  let sent = (Net.stats net).Net.sent - net0.Net.sent in
  if traced then begin
    layer.l_events <- layer.l_events + events;
    layer_add_net layer (net_combine ( - ) (Net.stats net) net0);
    layer_add_ep layer (ep_combine ( - ) (ep_sum fleet) ep0);
    (* Membership activity inside the load window: the data path should
       leave the flush, gms and Fd idle. *)
    let m =
      Metrics.of_entries
        (List.filter
           (fun (e : Recorder.entry) -> e.Recorder.time >= t0)
           (Recorder.entries (Sim.obs sim)))
    in
    add_counters layer m;
    Option.iter
      (fun h -> layer.l_flush <- Hdr.buckets h :: layer.l_flush)
      (Metrics.hist m "view.flush-stall")
  end;
  let offered = load.App_fleet.offered in
  let lats = ref [] and unapplied = ref 0 in
  for op = 0 to offered - 1 do
    if Bytes.get accepted op = '\001' then begin
      let t = applied_at.(op) in
      if Float.is_nan t then incr unapplied
      else lats := (t -. arrival.(op)) :: !lats
    end
  done;
  let lat = Array.of_list !lats in
  Array.sort Float.compare lat;
  let refused = load.App_fleet.rejected in
  if traced then layer.l_refused <- layer.l_refused + refused;
  let live = App_fleet.live fleet in
  let states = List.map state_of live in
  let consistent =
    List.length live = kv_replicas
    && (match states with
       | s0 :: rest -> List.for_all (String.equal s0) rest
       | [] -> false)
    && Array.for_all (fun c -> c = applies.(0)) applies
  in
  Ledger.leave check_id;
  Ledger.leave round_id;
  let fingerprint =
    Printf.sprintf
      "offered=%d accepted=%d refused=%d applied=%d events=%d sent=%d \
       p50=%h p999=%h applies=%d state=%s"
      offered load.App_fleet.accepted refused (Array.length lat) events sent
      (pct lat 0.5) (pct lat 0.999) applies.(0)
      (Digest.to_hex (Digest.string (String.concat "|" states)))
  in
  {
    b_setup_s = setup_s;
    b_segs = segs;
    b_raw_s = !raw;
    b_factor = factor;
    b_ops = Array.length lat;
    b_attempted = offered;
    b_failed = (if consistent then refused + !unapplied else offered);
    b_correct = consistent && !unapplied = 0;
    b_lat = lat;
    b_hists = [];
    b_fingerprint = fingerprint;
    b_runs = [];
    b_gc = gc;
  }

(* ---------- campaign workloads ---------- *)

let protocols = [ Driver.Vsync; Driver.Evs ]

let gen_specs ~seeds ~quick =
  List.concat_map
    (fun s ->
      List.map
        (fun protocol -> Campaign.generate ~protocol ~seed:s ~nodes:5 ~quick ())
        protocols)
    seeds

(* Consecutive campaign seeds: block [b] of a run takes [per_block] of them,
   and the run's blocks tile [seed * blocks * per_block] onwards. *)
let block_seeds ~seed ~b ~blocks ~per_block =
  List.init per_block (fun i -> (((seed * blocks) + b) * per_block) + i)

let acc_gc acc d =
  {
    minor = acc.minor +. d.minor;
    promoted = acc.promoted +. d.promoted;
    majors = acc.majors + d.majors;
  }

let gc_zero = { minor = 0.; promoted = 0.; majors = 0 }

(* The churn-check replay: the same spec driven through the cluster and
   oracle functions directly, so the traced run can split cluster time from
   checking time.  It mirrors Campaign.run (traffic from t = 0.5), and its
   split is reported only when its events, installs and deliveries equal
   that run's. *)
let run_sliced sim run ~until layer =
  let rec go t =
    let t = Float.min until t in
    run t;
    layer.l_pending_max <- max layer.l_pending_max (Sim.pending sim);
    Gc_pause.poll ();
    if t < until then go (t +. 0.25)
  in
  go 0.25

let replay_spec (spec : Campaign.spec) ~obs layer =
  let net_config =
    {
      Net.default_config with
      Net.drop_prob = spec.knobs.Campaign.loss_prob;
      dup_prob = spec.knobs.Campaign.dup_prob;
      delay_min = spec.knobs.Campaign.delay_min;
      delay_max = spec.knobs.Campaign.delay_max;
    }
  in
  let traffic = spec.Campaign.traffic_gap > 0. in
  let finish sim o ~ep ~net ~violations =
    layer.l_events <- layer.l_events + Sim.events_processed sim;
    layer_add_net layer net;
    layer_add_ep layer ep;
    ( (Sim.events_processed sim, Oracle.total_installs o, Oracle.total_deliveries o),
      violations )
  in
  match spec.Campaign.protocol with
  | Driver.Vsync ->
      let c =
        Ledger.span "cluster.create" (fun () ->
            Vsync_cluster.create ~seed:spec.Campaign.seed ~obs ~net_config
              ~n:spec.Campaign.nodes ())
      in
      Ledger.span "cluster.run" (fun () ->
          Vsync_cluster.run_script c spec.Campaign.script;
          if traffic then
            Vsync_cluster.pump_traffic c ~start:0.5
              ~until:spec.Campaign.traffic_until
              ~mean_gap:spec.Campaign.traffic_gap;
          run_sliced (Vsync_cluster.sim c)
            (fun t -> Vsync_cluster.run c ~until:t)
            ~until:spec.Campaign.horizon layer);
      let o = Vsync_cluster.oracle c in
      let violations =
        Ledger.span "oracle.check" (fun () ->
            List.length (Oracle.all_violations o))
      in
      finish (Vsync_cluster.sim c) o ~ep:(Vsync_cluster.stats_total c)
        ~net:(Vsync_cluster.net_stats c) ~violations
  | Driver.Evs ->
      let c =
        Ledger.span "cluster.create" (fun () ->
            Evs_cluster.create ~seed:spec.Campaign.seed ~obs ~net_config
              ~n:spec.Campaign.nodes ())
      in
      Ledger.span "cluster.run" (fun () ->
          Evs_cluster.run_script c spec.Campaign.script;
          if traffic then
            Evs_cluster.pump_traffic c ~start:0.5
              ~until:spec.Campaign.traffic_until
              ~mean_gap:spec.Campaign.traffic_gap;
          run_sliced (Evs_cluster.sim c)
            (fun t -> Evs_cluster.run c ~until:t)
            ~until:spec.Campaign.horizon layer);
      let o = Evs_cluster.oracle c in
      let violations =
        Ledger.span "oracle.check" (fun () ->
            List.length (Oracle.all_violations o)
            + List.length (Evs_cluster.check_total_order c)
            + List.length (Evs_cluster.check_structure c))
      in
      let ep =
        List.fold_left
          (fun acc e -> ep_combine ( + ) acc (Evs.endpoint_stats e))
          ep_zero (Evs_cluster.live c)
      in
      finish (Evs_cluster.sim c) o ~ep ~net:(Evs_cluster.net_stats c)
        ~violations

let churn_blocks = 10
let churn_per_block = 50

let campaign_setup ~seeds ~quick =
  let t = now () in
  let specs =
    Ledger.span "campaign.generate" (fun () -> gen_specs ~seeds ~quick)
  in
  (specs, now () -. t)

(* churn-check, untraced: spec generation is set-up; the measured window
   is the Campaign.run calls.  The Metrics fold that yields install latency
   runs outside the clock.  Traced: each spec is replayed through the
   clusters and the oracle under spans (the measured window is the replay),
   its Protocol-level stream folded for the membership counters. *)
let churn_block ~seed ~b ~traced ~layer =
  Ledger.on := traced;
  let round_id = Ledger.enter "round" in
  let clock = Clock.create () in
  let specs, setup_s =
    campaign_setup
      ~seeds:(block_seeds ~seed ~b ~blocks:churn_blocks ~per_block:churn_per_block)
      ~quick:true
  in
  let gc = ref gc_zero and raw = ref 0. in
  let hists = ref [] and failed = ref 0 and runs = ref [] in
  List.iter
    (fun spec ->
      let obs = Recorder.create ~level:Recorder.Protocol () in
      let g0 = gc_snap () in
      let t = now () in
      let run, violations =
        if traced then replay_spec spec ~obs layer
        else
          let o = Campaign.run ~obs spec in
          ( (o.Campaign.events, o.Campaign.installs, o.Campaign.deliveries),
            List.length o.Campaign.violations )
      in
      let dt = now () -. t in
      gc := acc_gc !gc (gc_delta g0 (gc_snap ()));
      raw := !raw +. dt;
      Clock.seg clock dt;
      if !Gc_pause.active then Gc_pause.poll ();
      if violations > 0 then incr failed;
      runs := run :: !runs;
      Ledger.span "metrics.of_entries" (fun () ->
          let m = Metrics.of_entries (Recorder.entries obs) in
          Option.iter
            (fun h -> hists := Hdr.buckets h :: !hists)
            (Metrics.hist m "view.install-latency");
          if traced then begin
            add_counters layer m;
            Option.iter
              (fun h -> layer.l_flush <- Hdr.buckets h :: layer.l_flush)
              (Metrics.hist m "view.flush-stall")
          end))
    specs;
  let segs, factor = Clock.finish clock in
  Ledger.leave round_id;
  let n = List.length specs and runs = List.rev !runs in
  let hists = [ merge_buckets !hists ] in
  {
    b_setup_s = setup_s /. Clock.first clock;
    b_segs = segs;
    b_raw_s = !raw;
    b_factor = factor;
    b_ops = n - !failed;
    b_attempted = n;
    b_failed = !failed;
    b_correct = !failed = 0;
    b_lat = [||];
    b_hists = hists;
    b_fingerprint =
      Printf.sprintf "p50=%h p99=%h runs=%s" (pooled_pct hists 0.5)
        (pooled_pct hists 0.99)
        (String.concat ";"
           (List.map (fun (e, i, d) -> Printf.sprintf "%d/%d/%d" e i d) runs));
    b_runs = runs;
    b_gc = !gc;
  }

(* trace-analyse: record each campaign at Full level and fold it through
   Metrics, Stall, Causal (+ validate), Critpath (+ Stall consistency),
   Lineage and Explain_run.  All of it is the measured window. *)
let trace_blocks = 12
let trace_per_block = 10

let trace_block ~seed ~b ~traced ~layer =
  Ledger.on := traced;
  let round_id = Ledger.enter "round" in
  let clock = Clock.create () in
  let specs, setup_s =
    campaign_setup
      ~seeds:(block_seeds ~seed ~b ~blocks:trace_blocks ~per_block:trace_per_block)
      ~quick:false
  in
  let gc = ref gc_zero and raw = ref 0. in
  let hists = ref [] and failed = ref 0 and prints = ref [] in
  let span = Ledger.span in
  List.iter
    (fun spec ->
      let g0 = gc_snap () in
      let t = now () in
      let obs = Recorder.create ~level:Recorder.Full () in
      let outcome =
        span "recorder.full_record" (fun () -> Campaign.run ~obs spec)
      in
      let entries = span "recorder.entries" (fun () -> Recorder.entries obs) in
      let metrics =
        span "metrics.of_entries" (fun () -> Metrics.of_entries entries)
      in
      let attrs = span "stall.of_entries" (fun () -> Stall.of_entries entries) in
      let dag = span "causal.of_entries" (fun () -> Causal.of_entries entries) in
      let valid =
        span "causal.validate" (fun () -> Result.is_ok (Causal.validate dag))
      in
      let cp = span "critpath.of_dag" (fun () -> Critpath.of_dag dag) in
      let consistent =
        span "critpath.consistent_with_stall" (fun () ->
            Critpath.consistent_with_stall cp attrs)
      in
      let lineage =
        span "lineage.of_entries" (fun () -> Lineage.of_entries entries)
      in
      let text =
        span "explain_run.build" (fun () ->
            Explain_run.to_text (Explain_run.build ~spec ~outcome ~entries))
      in
      let dt = now () -. t in
      gc := acc_gc !gc (gc_delta g0 (gc_snap ()));
      raw := !raw +. dt;
      Clock.seg clock dt;
      if !Gc_pause.active then Gc_pause.poll ();
      span "bench.check" (fun () ->
          let orphans = (Causal.stats dag).Causal.c_orphan_recvs in
          let ok =
            outcome.Campaign.violations = [] && valid && orphans = 0
            && consistent
          in
          if not ok then incr failed;
          let n_entries = List.length entries in
          if traced then begin
            layer.l_events <- layer.l_events + outcome.Campaign.events;
            layer.l_entries <- layer.l_entries + n_entries;
            add_counters layer metrics;
            Option.iter
              (fun h -> layer.l_flush <- Hdr.buckets h :: layer.l_flush)
              (Metrics.hist metrics "view.flush-stall")
          end;
          Option.iter
            (fun h -> hists := Hdr.buckets h :: !hists)
            (Metrics.hist metrics "view.install-latency");
          prints :=
            Printf.sprintf "%d/%d/%d/%d/%d/%b/%s" outcome.Campaign.events
              n_entries outcome.Campaign.installs
              (List.length lineage.Lineage.lifecycles)
              orphans ok
              (Digest.to_hex (Digest.string text))
            :: !prints))
    specs;
  let segs, factor = Clock.finish clock in
  Ledger.leave round_id;
  let n = List.length specs and hists = [ merge_buckets !hists ] in
  {
    b_setup_s = setup_s /. Clock.first clock;
    b_segs = segs;
    b_raw_s = !raw;
    b_factor = factor;
    b_ops = n - !failed;
    b_attempted = n;
    b_failed = !failed;
    b_correct = !failed = 0;
    b_lat = [||];
    b_hists = hists;
    b_fingerprint =
      Printf.sprintf "p50=%h p99=%h runs=%s" (pooled_pct hists 0.5)
        (pooled_pct hists 0.99)
        (String.concat ";" (List.rev !prints));
    b_runs = [];
    b_gc = !gc;
  }

(* ---------- isolated layer costs (traced runs only) ---------- *)

let micro_iters = 100_000

(* Median ns of [micro_iters] calls of [step], over five repetitions. *)
let time_ns step =
  median
    (List.init 5 (fun _ ->
         let t = now () in
         for _ = 1 to micro_iters do
           step ()
         done;
         (now () -. t) /. float_of_int micro_iters *. 1e9))

(* One Sim.after plus one Sim.step with [depth] events pending: every fired
   event schedules its successor, so the queue depth holds. *)
let sim_event_ns ~depth =
  let sim = Sim.create ~seed:7L () in
  let rng = Sim.fork_rng sim in
  let rec fire () =
    ignore (Sim.after sim (Vs_util.Rng.uniform rng 0.001 0.010) fire)
  in
  for _ = 1 to max 1 depth do
    fire ()
  done;
  time_ns (fun () -> ignore (Sim.step sim))

(* One Net.send and the Sim.step that delivers it. *)
let net_send_ns () =
  let sim = Sim.create ~seed:7L () in
  let net : int Net.t = Net.create sim Net.default_config in
  let a = Proc_id.make ~node:0 ~inc:0 and b = Proc_id.make ~node:1 ~inc:0 in
  Net.register net a (fun _ -> ());
  Net.register net b (fun _ -> ());
  time_ns (fun () ->
      Net.send net ~src:a ~dst:b 1;
      ignore (Sim.step sim))

(* ---------- workloads ---------- *)

type workload = Kv_unbatched | Kv_pipelined | Churn_check | Trace_analyse

let workloads =
  [
    ("kv-unbatched", Kv_unbatched);
    ("kv-pipelined", Kv_pipelined);
    ("churn-check", Churn_check);
    ("trace-analyse", Trace_analyse);
  ]

let is_kv = function Kv_unbatched | Kv_pipelined -> true | _ -> false

(* Blocks per run, and the simulated load window of one kv block: four
   blocks give the kv workloads over 10^5 timed puts, so p99.9 has more
   than 100 samples beyond it. *)
let blocks = function
  | Kv_unbatched | Kv_pipelined -> 4
  | Churn_check -> churn_blocks
  | Trace_analyse -> trace_blocks

let kv_window = function Kv_pipelined -> 10. | _ -> 3.75

let block w ~seed ~b ~traced ~layer =
  match w with
  | Kv_unbatched | Kv_pipelined ->
      kv_block
        ~seed:((seed * blocks w) + b)
        ~batching:(w = Kv_pipelined) ~window:(kv_window w) ~traced ~layer
  | Churn_check -> churn_block ~seed ~b ~traced ~layer
  | Trace_analyse -> trace_block ~seed ~b ~traced ~layer

(* A set-up alone, host-normalized: extra samples for the set-up median. *)
let setup_only w ~seed =
  let f = calibrate () /. cal_ref in
  let raw =
    match w with
    | Kv_unbatched | Kv_pipelined ->
        kv_setup_only ~seed:(seed * blocks w) ~batching:(w = Kv_pipelined)
    | Churn_check ->
        snd
          (campaign_setup
             ~seeds:(block_seeds ~seed ~b:0 ~blocks:churn_blocks ~per_block:churn_per_block)
             ~quick:true)
    | Trace_analyse ->
        snd
          (campaign_setup
             ~seeds:(block_seeds ~seed ~b:0 ~blocks:trace_blocks ~per_block:trace_per_block)
             ~quick:false)
  in
  raw /. f

let warm_setups = 5

let sum_ints f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_floats f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* Ops per host-normalized second over executions of a run's blocks: each
   segment's time is its median over the executions of its block, so a
   stall that hits one execution does not move the figure. *)
let ops_per_s (execs : block list array) =
  let ops = ref 0 and wall = ref 0. in
  Array.iter
    (fun bs ->
      match List.rev bs with
      | [] -> ()
      | first :: _ as all ->
          ops := !ops + first.b_ops;
          Array.iteri
            (fun i _ ->
              wall := !wall +. median (List.map (fun b -> b.b_segs.(i)) all))
            first.b_segs)
    execs;
  ratio (float_of_int !ops) !wall

let raw_ops_per_s execs =
  let all = List.concat (Array.to_list execs) in
  ratio
    (float_of_int (sum_ints (fun b -> b.b_ops) all))
    (sum_floats (fun b -> b.b_raw_s) all)

(* Simulated-time latency over every block's first execution: put latency
   (p50, p99.9) on kv, view-install latency (p50, p99) on campaigns. *)
let latency w firsts =
  if is_kv w then begin
    let lat = Array.concat (List.map (fun b -> b.b_lat) firsts) in
    Array.sort Float.compare lat;
    (pct lat 0.5, pct lat 0.999, Array.length lat)
  end
  else
    let hs = List.concat_map (fun b -> b.b_hists) firsts in
    (pooled_pct hs 0.5, pooled_pct hs 0.99, pooled_count hs)

let deterministic execs =
  Array.for_all
    (fun bs ->
      match List.rev bs with
      | first :: rest ->
          List.for_all
            (fun b ->
              String.equal b.b_fingerprint first.b_fingerprint
              || begin
                   Printf.eprintf "nondeterministic block:\n  %s\nvs\n  %s\n"
                     first.b_fingerprint b.b_fingerprint;
                   false
                 end)
            rest
      | [] -> true)
    execs

type metric = { m_name : string; m_value : float; m_unit : string }

let m name unit value = { m_name = name; m_value = value; m_unit = unit }

type outcome = {
  o_metrics : metric list;
  o_attempted : int;
  o_failed : int;
  o_correct : bool;
}

(* At least [min] block executions, cycling through the blocks, and more
   until [seconds] have passed since [t0]. *)
let run_blocks w ~seed ~seconds ~t0 ~min execs =
  let n = blocks w in
  let dummy = layer_create () in
  let rec loop i =
    let b = i mod n in
    let r = block w ~seed ~b ~traced:false ~layer:dummy in
    (* only a block's first execution feeds the latency figures *)
    let r = if execs.(b) = [] then r else { r with b_lat = [||]; b_hists = [] } in
    execs.(b) <- r :: execs.(b);
    Gc.compact ();
    if i + 1 < min || now () -. t0 < seconds then loop (i + 1)
  in
  loop 0

let summarise w execs setups =
  let all = List.concat (Array.to_list execs) in
  let firsts = List.map (fun bs -> List.hd (List.rev bs)) (Array.to_list execs) in
  let p50, tail, samples = latency w firsts in
  Printf.printf
    "block executions %d; raw %.1f ops/s; host factor median %.3f; %s \
     latency samples %d\n"
    (List.length all) (raw_ops_per_s execs)
    (median (List.map (fun b -> b.b_factor) all))
    (if is_kv w then "put" else "install")
    samples;
  {
    o_metrics =
      [
        m "ops_per_s" "1/s" (ops_per_s execs);
        m "latency_p50_ms" "ms" (p50 *. 1000.);
        m "latency_tail_ms" "ms" (tail *. 1000.);
        m "setup_s" "s" (median (setups @ List.map (fun b -> b.b_setup_s) all));
        m "heap_peak_mb" "MB" (heap_peak_mb ());
      ];
    o_attempted = sum_ints (fun b -> b.b_attempted) all;
    o_failed = sum_ints (fun b -> b.b_failed) all;
    o_correct = deterministic execs && List.for_all (fun b -> b.b_correct) all;
  }

let run_untraced w ~seed ~seconds =
  let setups = List.init warm_setups (fun _ -> setup_only w ~seed) in
  let execs = Array.make (blocks w) [] in
  (* every block once, then at least one repeat so determinism is checked *)
  run_blocks w ~seed ~seconds ~t0:(now ()) ~min:(blocks w + 1) execs;
  summarise w execs setups

let out_dir () =
  let d = Option.value ~default:"_perfbench" (Sys.getenv_opt "PERFBENCH_OUT") in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* Traced: one untraced pass over the blocks, one traced pass, then
   untraced repeats until [seconds] have passed.  End-to-end and GC figures
   come from the untraced executions; span times and layer counts from the
   traced pass, whose ledger is written out. *)
let run_traced w wname ~seed ~seconds =
  Gc_pause.start ();
  let t0 = now () in
  let n = blocks w in
  let dummy = layer_create () in
  let p0 = Gc_pause.seconds () in
  let plain =
    Array.init n (fun b ->
        let r = block w ~seed ~b ~traced:false ~layer:dummy in
        Gc.compact ();
        r)
  in
  let pause = Gc_pause.seconds () -. p0 in
  Ledger.reset ();
  let layer = layer_create () in
  let traced =
    Array.init n (fun b ->
        let r = block w ~seed ~b ~traced:true ~layer in
        Ledger.on := false;
        Gc.compact ();
        r)
  in
  let aggs = Ledger.aggregate () in
  Ledger.write
    (Filename.concat (out_dir ())
       (Printf.sprintf "%s-seed%d.spans.txt" wname seed));
  (* churn-check's traced pass is the replay: its split stands only if it
     reproduced Campaign.run's counts campaign by campaign *)
  let split_ok =
    w <> Churn_check
    || Array.for_all2 (fun (u : block) t -> u.b_runs = t.b_runs) plain traced
  in
  (* elsewhere the spans must leave the simulated run untouched *)
  let traced_same =
    w = Churn_check
    || Array.for_all2
         (fun (u : block) t -> String.equal u.b_fingerprint t.b_fingerprint)
         plain traced
  in
  let execs = Array.map (fun b -> [ b ]) plain in
  run_blocks w ~seed ~seconds ~t0 ~min:1 execs;
  let o = summarise w execs [] in
  let plain = Array.to_list plain in
  let fi = float_of_int in
  let ops = fi (sum_ints (fun b -> b.b_ops) plain) in
  let per_op x = ratio x ops in
  let campaigns = not (is_kv w) in
  let ep = layer.l_ep and net = layer.l_net in
  let per_campaign name = per_op (Ledger.self_of aggs name) in
  let untraced_ops = ops_per_s (Array.of_list (List.map (fun b -> [ b ]) plain)) in
  let traced_ops = ops_per_s (Array.map (fun b -> [ b ]) traced) in
  let gc = List.fold_left (fun acc b -> acc_gc acc b.b_gc) gc_zero plain in
  let split x = if split_ok then x else -1. in
  (* Campaign.run hides the trace-analyse network; its Full recording
     counts the same sends, drops and duplicates. *)
  let net_count direct name = fi (if net.Net.sent > 0 then direct else counter layer name) in
  let replay_s =
    sum_floats (Ledger.total_of aggs) [ "cluster.create"; "cluster.run"; "oracle.check" ]
  in
  let metrics =
    [
      m "sim.events_per_op" "count" (per_op (fi layer.l_events));
      m "sim.events_per_campaign" "count"
        (if campaigns then per_op (fi layer.l_events) else 0.);
      m "sim.event_ns" "ns" (sim_event_ns ~depth:layer.l_pending_max);
      m "sim.pending_max" "count" (fi layer.l_pending_max);
      m "net.msgs_per_op" "count" (per_op (net_count net.Net.sent "net.sends"));
      m "net.bytes_per_op" "B" (per_op (fi net.Net.bytes_sent));
      m "net.send_ns" "ns" (net_send_ns ());
      m "net.dropped" "count" (net_count net.Net.dropped "net.drops");
      m "net.duplicated" "count" (net_count net.Net.duplicated "net.dups");
      m "endpoint.data_sent_per_op" "count" (per_op (fi ep.Endpoint.data_sent));
      m "endpoint.batches_sent" "count" (fi ep.Endpoint.batches_sent);
      m "endpoint.ops_per_batch" "count"
        (if is_kv w then ratio ops (fi ep.Endpoint.batches_sent) else 0.);
      m "endpoint.stabilized_pct" "%"
        (100. *. ratio (fi ep.Endpoint.stabilized) (fi ep.Endpoint.delivered));
      m "endpoint.to_dropped" "count" (fi ep.Endpoint.to_dropped);
      m "endpoint.installs_per_proposal" "ratio"
        (ratio (fi ep.Endpoint.views_installed) (fi ep.Endpoint.proposals_started));
      m "endpoint.sync_delivered" "count" (fi ep.Endpoint.sync_delivered);
      m "endpoint.nacks_sent" "count" (fi ep.Endpoint.nacks_sent);
      m "endpoint.retransmits" "count" (fi ep.Endpoint.retransmits);
      m "endpoint.ctl_retries" "count" (fi ep.Endpoint.ctl_retries);
      m "endpoint.ctl_abandoned" "count" (fi ep.Endpoint.ctl_abandoned);
      m "gms.proposes" "count" (fi (counter layer "gms.proposes"));
      m "gms.flushes" "count" (fi (counter layer "gms.flushes"));
      m "fd.suspects" "count" (fi (counter layer "fd.suspects"));
      m "fd.unsuspects" "count" (fi (counter layer "fd.unsuspects"));
      m "view.flush_stall_p99_ms" "ms" (pooled_pct layer.l_flush 0.99 *. 1000.);
      m "evs.eviews" "count" (fi (counter layer "evs.eviews"));
      m "kv_store.put_us" "us"
        (1e6
        *. ratio (Ledger.self_of aggs "kv_store.put")
             (fi (Ledger.count_of aggs "kv_store.put")));
      m "kv_store.refused" "count" (fi layer.l_refused);
      m "oracle.check_pct" "%"
        (if w = Churn_check then
           split (100. *. ratio (Ledger.total_of aggs "oracle.check") replay_s)
         else 0.);
      m "cluster.run_s_per_campaign" "s"
        (if w = Churn_check then split (per_campaign "cluster.run") else 0.);
      m "bench.split_available" "bool" (if split_ok then 1. else 0.);
      m "recorder.entries_per_campaign" "count"
        (if campaigns then per_op (fi layer.l_entries) else 0.);
      m "recorder.full_record_s" "s" (per_campaign "recorder.full_record");
      m "metrics.of_entries_s" "s"
        (if w = Trace_analyse then per_campaign "metrics.of_entries" else 0.);
      m "stall.of_entries_s" "s" (per_campaign "stall.of_entries");
      m "causal.of_entries_s" "s" (per_campaign "causal.of_entries");
      m "critpath.of_dag_s" "s" (per_campaign "critpath.of_dag");
      m "lineage.of_entries_s" "s" (per_campaign "lineage.of_entries");
      m "explain_run.build_s" "s" (per_campaign "explain_run.build");
      m "gc.minor_words_per_op" "words" (per_op gc.minor);
      m "gc.promoted_pct" "%" (100. *. ratio gc.promoted gc.minor);
      m "gc.major_collections" "count" (fi gc.majors);
      m "gc.pause_s" "s" pause;
      m "bench.host_factor" "ratio"
        (median (List.map (fun b -> b.b_factor) plain));
      m "bench.unattributed_pct" "%"
        (100.
        *. ratio (Ledger.self_of aggs "round") (Ledger.total_of aggs "round"));
      m "bench.trace_overhead_pct" "%"
        (100. *. (ratio untraced_ops traced_ops -. 1.));
    ]
  in
  if !Gc_pause.lost > 0 then
    Printf.eprintf "warning: %d runtime events lost; gc.pause_s reads low\n"
      !Gc_pause.lost;
  if w = Churn_check then
    Printf.printf "cluster/oracle split %s\n"
      (if split_ok then "available" else "unavailable: the replay differs");
  {
    o with
    o_metrics = metrics;
    o_correct =
      o.o_correct && traced_same && Array.for_all (fun b -> b.b_correct) traced;
  }

(* ---------- output ---------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result o =
  List.iter
    (fun x ->
      Printf.printf "  %-32s %24s %s\n" x.m_name (json_number x.m_value) x.m_unit)
    o.o_metrics;
  let metrics =
    List.map
      (fun x ->
        if not (Float.is_finite x.m_value) then
          failwith ("non-finite metric " ^ x.m_name);
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
          (json_number x.m_value) x.m_unit)
      o.o_metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.o_correct o.o_attempted o.o_failed (String.concat ", " metrics)

(* ---------- ledger self-test ---------- *)

(* A fixed busy-wait added inside every kv_store.put span must appear as
   that span's self time and in no other span's self time. *)
let self_test () =
  let inject = 100e-6 in
  let go s =
    inject_put_s := s;
    Ledger.reset ();
    let r =
      kv_block ~seed:3 ~batching:false ~window:1.0 ~traced:true
        ~layer:(layer_create ())
    in
    Ledger.on := false;
    Gc.compact ();
    (r, Ledger.aggregate ())
  in
  ignore (go 0.);
  let r0, a0 = go 0. in
  let r1, a1 = go inject in
  let injected = inject *. float_of_int (Ledger.count_of a1 "kv_store.put") in
  let names =
    List.sort_uniq String.compare (List.map fst a0 @ List.map fst a1)
  in
  let ok = ref (String.equal r0.b_fingerprint r1.b_fingerprint) in
  if not !ok then print_endline "FAIL: the injection changed the simulated run";
  List.iter
    (fun name ->
      let d = Ledger.self_of a1 name -. Ledger.self_of a0 name in
      let good =
        if String.equal name "kv_store.put" then
          d >= 0.8 *. injected && d <= 1.3 *. injected
        else Float.abs d < 0.2 *. injected
      in
      Printf.printf "%-4s %-20s self %+.4f s (injected %.4f s)\n"
        (if good then "ok" else "FAIL")
        name d injected;
      if not good then ok := false)
    names;
  if !ok then print_endline "self-test passed" else exit 1

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: vsbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       vsbench --self-test\n\
     workloads: kv-unbatched kv-pipelined churn-check trace-analyse";
  exit 2

let () =
  let rec parse acc = function
    | "--self-test" :: rest -> parse (("self-test", "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k opts in
  if get "self-test" <> None then self_test ()
  else begin
    let wname = Option.value ~default:"" (get "workload") in
    let w =
      match List.assoc_opt wname workloads with Some w -> w | None -> usage ()
    in
    let int k =
      match Option.bind (get k) int_of_string_opt with
      | Some n -> n
      | None -> usage ()
    in
    let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
    if seed < 0 || seconds <= 0 || (trace <> 0 && trace <> 1) then usage ();
    Printf.printf "vsbench %s seed %d seconds %d trace %d\n%!" wname seed
      seconds trace;
    let seconds = float_of_int seconds in
    let o =
      if trace = 1 then run_traced w wname ~seed ~seconds
      else run_untraced w ~seed ~seconds
    in
    print_result o;
    if not o.o_correct then prerr_endline "vsbench: output checks failed"
  end
