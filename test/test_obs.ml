(* Tests for the observability layer: recorder levels, JSONL/Chrome
   exporters, metrics derivation, histogram quantiles, determinism of the
   rendered artifacts, and the legacy Trace shim. *)

module Sim = Vs_sim.Sim
module Trace = Vs_sim.Trace
module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Json = Vs_obs.Json
module Export = Vs_obs.Export
module Metrics = Vs_obs.Metrics
module Summary = Vs_stats.Summary
module Lineage = Vs_obs.Lineage
module Query = Vs_obs.Query
module Campaign = Vs_check.Campaign
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

let check = Alcotest.check

let p node inc = { Event.node; inc }

let v epoch node = { Event.epoch; proposer = p node 0 }

(* ---------- lib/stats quantiles (the histogram backend) ---------- *)

let test_percentile_empty () =
  let s = Summary.create () in
  check (Alcotest.float 0.) "empty p50" 0. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "empty p95" 0. (Summary.percentile s 0.95);
  check Alcotest.bool "empty max is -inf" true
    (Summary.max_value s = Float.neg_infinity)

let test_percentile_single () =
  let s = Summary.of_list [ 42. ] in
  check (Alcotest.float 0.) "single p50" 42. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "single p95" 42. (Summary.percentile s 0.95);
  check (Alcotest.float 0.) "single max" 42. (Summary.max_value s)

let test_percentile_nearest_rank () =
  (* 1..20: nearest-rank p95 is the ceil(0.95*20) = 19th smallest. *)
  let s = Summary.of_list (List.init 20 (fun i -> float_of_int (i + 1))) in
  check (Alcotest.float 0.) "p95 of 1..20" 19. (Summary.percentile s 0.95);
  check (Alcotest.float 0.) "p50 of 1..20" 10. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "p100 of 1..20" 20. (Summary.percentile s 1.0)

(* ---------- recorder levels ---------- *)

let test_recorder_levels () =
  let off = Recorder.create ~level:Recorder.Off () in
  Recorder.emit off ~time:1. Event.Heal;
  check Alcotest.int "Off records nothing" 0 (Recorder.count off);
  let full = Recorder.create ~level:Recorder.Full () in
  Recorder.emit full ~time:1. Event.Heal;
  Recorder.emit full ~time:2. (Event.Crash { proc = p 0 0 });
  check Alcotest.int "Full records" 2 (Recorder.count full);
  check (Alcotest.list (Alcotest.float 0.)) "entries oldest first" [ 1.; 2. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.entries full))

let test_protocol_skips_traffic () =
  (* A lossy campaign recorded at Protocol level must contain protocol
     events but no per-message traffic. *)
  let recorder = Recorder.create ~level:Recorder.Protocol () in
  let spec = Campaign.generate ~seed:3 ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  let names =
    List.map (fun e -> Event.type_name e.Recorder.event) (Recorder.entries recorder)
  in
  check Alcotest.bool "has protocol events" true (List.mem "install" names);
  check Alcotest.bool "no sends at Protocol" false (List.mem "send" names);
  check Alcotest.bool "no recvs at Protocol" false (List.mem "recv" names)

let test_tail () =
  let r = Recorder.create ~level:Recorder.Full () in
  for i = 1 to 10 do
    Recorder.emit r ~time:(float_of_int i) Event.Heal
  done;
  let tail = Recorder.tail ~limit:3 r in
  check (Alcotest.list (Alcotest.float 0.)) "last 3, oldest first" [ 8.; 9.; 10. ]
    (List.map (fun e -> e.Recorder.time) tail);
  check Alcotest.int "tail larger than stream" 10
    (List.length (Recorder.tail ~limit:50 r))

let test_level_parse () =
  check Alcotest.bool "case-insensitive" true
    (Recorder.level_of_string "FULL" = Some Recorder.Full
    && Recorder.level_of_string "Protocol" = Some Recorder.Protocol
    && Recorder.level_of_string "off" = Some Recorder.Off);
  check Alcotest.bool "garbage rejected" true
    (Recorder.level_of_string "fullest" = None);
  check
    (Alcotest.list Alcotest.string)
    "valid set for CLI errors" [ "off"; "protocol"; "full" ]
    Recorder.all_level_names

let test_capacity () =
  let r = Recorder.create ~capacity:4 ~level:Recorder.Full () in
  check Alcotest.bool "capacity is visible" true
    (Recorder.capacity r = Some 4);
  for i = 1 to 3 do
    Recorder.emit r ~time:(float_of_int i) Event.Heal
  done;
  (* Read once below capacity, then keep emitting: the materialized view
     must be invalidated, not served stale. *)
  check (Alcotest.list (Alcotest.float 0.)) "below capacity" [ 1.; 2.; 3. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.entries r));
  for i = 4 to 10 do
    Recorder.emit r ~time:(float_of_int i) Event.Heal
  done;
  check Alcotest.int "count keeps the total across eviction" 10
    (Recorder.count r);
  check (Alcotest.list (Alcotest.float 0.)) "wraparound keeps newest 4"
    [ 7.; 8.; 9.; 10. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.entries r));
  check (Alcotest.list (Alcotest.float 0.)) "tail within the ring" [ 9.; 10. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.tail ~limit:2 r));
  check (Alcotest.list (Alcotest.float 0.)) "tail capped by the ring"
    [ 7.; 8.; 9.; 10. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.tail ~limit:50 r));
  Recorder.clear r;
  check Alcotest.int "clear resets" 0 (Recorder.count r);
  check Alcotest.bool "clear empties entries" true (Recorder.entries r = []);
  check Alcotest.bool "capacity must be positive" true
    (try
       ignore (Recorder.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* ---------- exporters ---------- *)

let full_run seed =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  recorder

let test_jsonl_deterministic () =
  let a = full_run 5 and b = full_run 5 in
  check Alcotest.bool "recorded something" true (Recorder.count a > 100);
  check Alcotest.string "identical seeds give byte-identical JSONL"
    (Export.jsonl_of_entries (Recorder.entries a))
    (Export.jsonl_of_entries (Recorder.entries b));
  check Alcotest.string "and byte-identical metrics summaries"
    (Metrics.to_text (Metrics.of_entries (Recorder.entries a)))
    (Metrics.to_text (Metrics.of_entries (Recorder.entries b)))

let test_jsonl_round_trip () =
  let recorder = full_run 11 in
  let text = Export.jsonl_of_entries (Recorder.entries recorder) in
  match Export.entries_of_jsonl text with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok entries ->
      check Alcotest.int "entry count survives" (Recorder.count recorder)
        (List.length entries);
      check Alcotest.string "re-emission is the identity" text
        (Export.jsonl_of_entries entries)

let test_chrome_export () =
  let recorder = full_run 7 in
  let doc = Export.chrome_of_entries (Recorder.entries recorder) in
  match Json.of_string doc with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          check Alcotest.bool "has events" true (List.length events > 0);
          List.iter
            (fun ev ->
              let has k = Json.member k ev <> None in
              let meta =
                match Option.bind (Json.member "ph" ev) Json.to_string_opt with
                | Some "M" -> true
                | Some _ | None -> false
              in
              (* process-scoped "M" metadata carries no tid *)
              check Alcotest.bool "event has ph/pid(/tid)" true
                (has "ph" && has "pid" && (has "tid" || meta)))
            events)

(* ---------- metrics derivation on a synthetic stream ---------- *)

let test_metrics_derivation () =
  let e time event = { Recorder.time; event } in
  let entries =
    [
      e 0.0
        (Event.Propose { proc = p 0 0; vid = v 1 0; members = [ p 0 0; p 1 0 ] });
      e 0.1 (Event.Flush { proc = p 1 0; vid = v 1 0; seen = 2 });
      e 0.25
        (Event.Install
           { proc = p 1 0; vid = v 1 0; members = [ p 0 0; p 1 0 ]; sync = 3 });
      e 0.3
        (Event.Send
           { src = p 0 0; dst = p 1 0; kind = "data"; bytes = 8; msg = None });
      e 0.4
        (Event.Drop
           {
             src = p 0 0; dst = p 1 0; kind = "data"; reason = "loss";
             msg = None;
           });
    ]
  in
  let m = Metrics.of_entries entries in
  check Alcotest.int "installs counted" 1 (Metrics.counter m "gms.installs");
  check Alcotest.int "drops by reason" 1 (Metrics.counter m "net.drops.loss");
  check Alcotest.int "sends by mode default N" 1
    (Metrics.counter m "net.sends.mode.N");
  (* Histograms are HDR-bucketed: reported values are bucket upper bounds,
     within a factor (1 + error) above the exact sample. *)
  let check_hdr name exact h =
    match h with
    | None -> Alcotest.fail (name ^ ": histogram missing")
    | Some s ->
        let v = Vs_obs.Hdr.max_value s in
        let ok = v >= exact && v <= exact *. (1. +. Vs_obs.Hdr.error s) in
        check Alcotest.bool (name ^ " within bucket error") true ok
  in
  check_hdr "latency = propose->install" 0.25
    (Metrics.hist m "view.install-latency");
  check_hdr "stall = flush->install" 0.15 (Metrics.hist m "view.flush-stall");
  check_hdr "sync count" 3. (Metrics.hist m "view.sync-deliveries")

(* ---------- lineage conservation on a seeded lossy run ---------- *)

(* Every send the stream records must be accounted for — delivered, dropped
   with a reason, or still in flight at shutdown — and no data-path event
   may reference a message the fold did not track.  Shared between the
   unbatched campaign run and the batched-wire cluster run below: the
   conservation law is per payload, so it must survive payloads travelling
   inside {!Vs_vsync.Wire.Batch} envelopes unchanged. *)
let assert_conservation entries =
  let lng = Lineage.of_entries entries in
  check Alcotest.bool "messages tracked" true (lng.Lineage.lifecycles <> []);
  (* no orphans: every identity-carrying event belongs to a lifecycle *)
  List.iter
    (fun (e : Recorder.entry) ->
      match Event.msg_of e.Recorder.event with
      | None -> ()
      | Some m ->
          if Lineage.lifecycle lng m = None then
            Alcotest.failf "orphaned data-path event for %s"
              (Event.msg_to_string m))
    entries;
  let assoc_total l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  let total_drops = ref 0 and total_received = ref 0 in
  List.iter
    (fun (l : Lineage.lifecycle) ->
      let count w =
        List.length
          (List.filter
             (fun (h : Lineage.hop) -> h.Lineage.h_what = w)
             l.Lineage.l_hops)
      in
      let sends = count Lineage.Sent
      and dups = count Lineage.Duplicated
      and recvs = count Lineage.Received in
      let pre, infl =
        List.fold_left
          (fun (pre, infl) (h : Lineage.hop) ->
            match h.Lineage.h_what with
            | Lineage.Dropped r ->
                if Lineage.send_time_reason r then (pre + 1, infl)
                else (pre, infl + 1)
            | Lineage.Sent | Lineage.Received | Lineage.Duplicated ->
                (pre, infl))
          (0, 0) l.Lineage.l_hops
      in
      let name = Event.msg_to_string l.Lineage.l_msg in
      check Alcotest.int (name ^ ": copies = sends + dups") (sends + dups)
        l.Lineage.l_copies;
      check Alcotest.int (name ^ ": received") recvs l.Lineage.l_received;
      check Alcotest.int (name ^ ": send-time drops") pre
        (assoc_total l.Lineage.l_predrops);
      check Alcotest.int (name ^ ": in-flight drops") infl
        (assoc_total l.Lineage.l_inflight_drops);
      check Alcotest.int
        (name ^ ": in flight = copies - received - in-flight drops")
        (l.Lineage.l_copies - l.Lineage.l_received
        - assoc_total l.Lineage.l_inflight_drops)
        l.Lineage.l_in_flight;
      check Alcotest.bool (name ^ ": in flight >= 0") true
        (l.Lineage.l_in_flight >= 0);
      List.iter
        (fun (r, _) ->
          check Alcotest.bool (name ^ ": predrop reason " ^ r) true
            (Lineage.send_time_reason r))
        l.Lineage.l_predrops;
      List.iter
        (fun (r, _) ->
          check Alcotest.bool (name ^ ": in-flight reason " ^ r) true
            (not (Lineage.send_time_reason r)))
        l.Lineage.l_inflight_drops;
      total_drops :=
        !total_drops + assoc_total l.Lineage.l_predrops
        + assoc_total l.Lineage.l_inflight_drops;
      total_received := !total_received + l.Lineage.l_received)
    lng.Lineage.lifecycles;
  check Alcotest.bool "the lossy run actually dropped copies" true
    (!total_drops > 0);
  check Alcotest.bool "and delivered some" true (!total_received > 0);
  (* cross-check against the query layer's typed counting *)
  let sends_q = Query.(count (of_type "send" &&& carries_msg)) entries in
  let dups_q = Query.(count (of_type "dup" &&& carries_msg)) entries in
  let copies =
    List.fold_left
      (fun acc (l : Lineage.lifecycle) -> acc + l.Lineage.l_copies)
      0 lng.Lineage.lifecycles
  in
  check Alcotest.int "query counting agrees with the fold" (sends_q + dups_q)
    copies

(* E11-style network: substantial loss and duplication, unbatched wire. *)
let test_lineage_conservation () =
  let spec = Campaign.generate ~seed:13 ~nodes:4 ~quick:true () in
  let spec =
    {
      spec with
      Campaign.knobs =
        {
          spec.Campaign.knobs with
          Campaign.loss_prob = 0.2;
          dup_prob = 0.08;
        };
    }
  in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  assert_conservation (Recorder.entries recorder)

(* The same conservation law with batching on: payloads travel inside
   Wire.Batch envelopes, but the Full-level stream still records one
   identity-carrying event per payload copy, so the per-message ledger must
   balance exactly as in the unbatched run. *)
let test_lineage_conservation_batched () =
  let module Vc = Vs_harness.Vsync_cluster in
  let module Endpoint = Vs_vsync.Endpoint in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let config =
    {
      Endpoint.default_config with
      Endpoint.batching = true;
      stability_interval = Some 0.05;
      pipeline_depth = 4;
      batch_max = 32;
    }
  in
  let net_config =
    {
      Vs_net.Net.default_config with
      Vs_net.Net.drop_prob = 0.15;
      dup_prob = 0.05;
    }
  in
  let c = Vc.create ~seed:909L ~obs:recorder ~net_config ~config ~n:4 () in
  Vc.run c ~until:1.5;
  for _ = 1 to 30 do
    Vc.multicast_from c ~node:0 ();
    Vc.multicast_from c ~node:1 ~order:Endpoint.Total ()
  done;
  Vc.run c ~until:6.0;
  check Alcotest.bool "the batched wire was exercised" true
    ((Vc.stats_total c).Endpoint.batches_sent > 0);
  assert_conservation (Recorder.entries recorder)

(* ---------- canonical JSON ---------- *)

(* ---------- identity renderings ---------- *)

(* The renderings feed Export, Explain and Rundiff, so their spelling is
   pinned (also by @trace-schema and @explain-corpus) and each parses back. *)
let test_identity_round_trip () =
  let opt_eq eq a b =
    match (a, b) with Some x, Some y -> eq x y | None, None -> true | _ -> false
  in
  List.iter
    (fun (pr, text) ->
      check Alcotest.string ("proc " ^ text) text (Event.proc_to_string pr);
      check Alcotest.bool ("proc round-trip " ^ text) true
        (opt_eq Event.equal_proc (Some pr)
           (Event.proc_of_string (Event.proc_to_string pr))))
    [ (p 3 (-1), "n3"); (p 0 0, "p0"); (p 12 0, "p12"); (p 2 1, "p2.1");
      (p 7 15, "p7.15") ];
  List.iter
    (fun (vd, text) ->
      check Alcotest.string ("vid " ^ text) text (Event.vid_to_string vd);
      check Alcotest.bool ("vid round-trip " ^ text) true
        (opt_eq Event.equal_vid (Some vd)
           (Event.vid_of_string (Event.vid_to_string vd))))
    [ (v 0 0, "v0@p0"); (v 4 2, "v4@p2");
      ({ Event.epoch = 11; proposer = p 2 3 }, "v11@p2.3");
      ({ Event.epoch = 1; proposer = p 5 (-1) }, "v1@n5") ];
  List.iter
    (fun (m, text) ->
      check Alcotest.string ("msg " ^ text) text (Event.msg_to_string m);
      check Alcotest.bool ("msg round-trip " ^ text) true
        (opt_eq Event.equal_msg (Some m)
           (Event.msg_of_string (Event.msg_to_string m))))
    [ ({ Event.origin = p 0 0; mseq = 3 }, "p0#3");
      ({ Event.origin = p 4 2; mseq = 0 }, "p4.2#0");
      ({ Event.origin = p 1 (-1); mseq = 17 }, "n1#17") ]

(* The protocol's identity helpers and the schema's must agree on every
   non-negative id: tables hash alike on both sides, and a rendered id reads
   the same in a protocol message as in a recorded trace. *)
let prop_identity_helpers_agree =
  let gen_pid =
    QCheck.Gen.(
      map2 (fun node inc -> Proc_id.make ~node ~inc) (int_bound 4000)
        (int_bound 300))
  in
  QCheck.Test.make ~name:"protocol and schema identity helpers agree"
    ~count:500
    QCheck.(
      make
        ~print:(fun (a, b, e) ->
          Printf.sprintf "%s %s epoch=%d" (Proc_id.to_string a)
            (Proc_id.to_string b) e)
        Gen.(triple gen_pid gen_pid (int_bound 10_000)))
    (fun (a, b, epoch) ->
      let vid = View.Id.make ~epoch ~proposer:a in
      String.equal (Proc_id.to_string a) (Event.proc_to_string a)
      && String.equal (View.Id.to_string vid) (Event.vid_to_string vid)
      && Proc_id.hash a = Event.hash_proc a
      && Bool.equal (Proc_id.equal a b) (Event.equal_proc a b)
      && Bool.equal (Proc_id.equal a a) (Event.equal_proc a a)
      && Int.equal (Proc_id.compare a b) (Event.compare_proc a b)
      && Int.equal (Proc_id.compare b a) (Event.compare_proc b a))

let test_json_canonical () =
  List.iter
    (fun (txt, expect) ->
      match Json.of_string txt with
      | Error e -> Alcotest.failf "%s does not parse: %s" txt e
      | Ok j -> check Alcotest.string txt expect (Json.to_string j))
    [
      ({|{"a":1,"b":[true,null,"x\n"],"t":0.25}|},
       {|{"a":1,"b":[true,null,"x\n"],"t":0.25}|});
      ({|{"t":3.0}|}, {|{"t":3.0}|});
      ("[]", "[]");
    ];
  check Alcotest.string "integer float" "3.0" (Json.float_repr 3.);
  check Alcotest.string "fraction" "0.0012" (Json.float_repr 0.0012)

(* ---------- the legacy Trace shim ---------- *)

let test_trace_shim () =
  let sim = Sim.create ~obs:(Recorder.create ~level:Recorder.Full ()) () in
  let tr = Sim.trace sim in
  Sim.record sim ~component:"app" "first";
  Sim.emit sim (Event.Crash { proc = p 2 0 });
  Sim.record sim ~component:"app" "second";
  check Alcotest.int "length counts typed and note events" 3 (Trace.length tr);
  let app = Trace.by_component tr "app" in
  check (Alcotest.list Alcotest.string) "by_component filters notes"
    [ "first"; "second" ]
    (List.map (fun e -> e.Trace.message) app);
  let all = Trace.entries tr in
  check (Alcotest.list Alcotest.string) "typed events render into the stream"
    [ "app"; "net"; "app" ]
    (List.map (fun e -> e.Trace.component) all);
  (* repeated reads share the materialized view *)
  check Alcotest.bool "entries cache is reused" true (Trace.entries tr == all)

let () =
  Alcotest.run "obs"
    [
      ( "quantiles",
        [
          Alcotest.test_case "empty" `Quick test_percentile_empty;
          Alcotest.test_case "single" `Quick test_percentile_single;
          Alcotest.test_case "nearest-rank" `Quick test_percentile_nearest_rank;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "levels" `Quick test_recorder_levels;
          Alcotest.test_case "protocol-skips-traffic" `Quick
            test_protocol_skips_traffic;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "level-parse" `Quick test_level_parse;
          Alcotest.test_case "capacity" `Quick test_capacity;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl-deterministic" `Quick test_jsonl_deterministic;
          Alcotest.test_case "jsonl-round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "chrome" `Quick test_chrome_export;
        ] );
      ( "metrics",
        [ Alcotest.test_case "derivation" `Quick test_metrics_derivation ] );
      ( "lineage",
        [
          Alcotest.test_case "conservation" `Quick test_lineage_conservation;
          Alcotest.test_case "conservation (batched wire)" `Quick
            test_lineage_conservation_batched;
        ] );
      ( "identities",
        [
          Alcotest.test_case "round-trip" `Quick test_identity_round_trip;
          QCheck_alcotest.to_alcotest prop_identity_helpers_agree;
        ] );
      ( "json", [ Alcotest.test_case "canonical" `Quick test_json_canonical ] );
      ( "trace-shim", [ Alcotest.test_case "compat" `Quick test_trace_shim ] );
    ]
