(* dune build @sim-fingerprint — a schedule fingerprint of three short seeded
   runs, compared byte-for-byte against the committed sample.

   - kv-unbatched / kv-pipelined: six Lww Kv_store replicas under an
     open-loop Zipf put load for 0.5 sim-s (plus a drain), batching off, or
     on with an 8-round pipeline;
   - a mixed Fifo/Causal endpoint run on a reordering, lossy, duplicating
     network with one crash, where deliveries trigger further causal
     multicasts;
   - eight quick campaigns (both protocols, with crashes, partitions, loss
     and duplication) and four transient ones, one of them carrying a
     Stability_smear corruption: the background control plane — failure
     suspicion, stability gossip, the corrupted-floor path — under churn;
   - kv-faults: five Lww replicas under a fixed crash / partition / recover
     / heal script driven through App_fleet.run_script, pinning the fleet's
     fault interpreter and incarnation numbering.

   For each it prints the events processed, the Net counters, a digest of
   every replica's apply stream (kv) or every process's delivery sequence
   (endpoints); for a campaign, its outcome counters (stable view, distinct
   views and the quarantine summary included) and a digest of its
   Protocol-level recording (which carries every Suspect/Unsuspect).  Any change to event ordering, RNG consumption, wire traffic
   or delivery order moves at least one line, so a hot-path optimisation
   that claims to leave the schedule alone is held to it.  Regenerate only
   after an intentional schedule change with
     dune exec test/sim_fingerprint.exe -- --write test/sim_fingerprint.txt *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint
module Kv = Vs_apps.Kv_store
module App_fleet = Vs_exp.App_fleet
module Rng = Vs_util.Rng
module Campaign = Vs_check.Campaign
module Faults = Vs_harness.Faults
module Driver = Vs_harness.Driver
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event

let net_line (s : Net.stats) =
  Printf.sprintf "net sent=%d delivered=%d dropped=%d duplicated=%d bytes=%d"
    s.Net.sent s.Net.delivered s.Net.dropped s.Net.duplicated
    s.Net.bytes_sent

let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- kv fleets ---------- *)

let kv_replicas = 6

let kv out ~name ~seed ~batching =
  let config =
    if batching then
      { Endpoint.default_config with Endpoint.batching = true; pipeline_depth = 8 }
    else Endpoint.default_config
  in
  let sim = Sim.create ~seed () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init kv_replicas Fun.id in
  let applies = Array.init kv_replicas (fun _ -> Buffer.create 4096) in
  let on_apply node ~origin ~key ~value =
    Printf.bprintf applies.(node) "%d:%s=%s;" origin key value
  in
  let make ~node ~inc =
    Kv.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
      ~on_apply:(on_apply node) ~config ~policy:Kv.Lww ()
  in
  let fleet =
    App_fleet.create ~sim ~nodes:universe ~make ~kill:Kv.kill
      ~is_alive:Kv.is_alive ~me:Kv.me
      ~history:(fun kv -> Vs_apps.Group_object.history (Kv.obj kv))
  in
  (* Boot and assemble for a fixed sim span, then load. *)
  ignore (Sim.run ~until:2.0 sim);
  let t0 = Sim.now sim in
  let arrivals = Sim.fork_rng sim in
  let key_of =
    Vs_exp.Exp_throughput.make_key_sampler ~rng:(Sim.fork_rng sim) ~keys:128
      ~zipf:(Some 1.1)
  in
  let submit kv ~client:_ ~op =
    match
      Kv.put kv ~key:(Printf.sprintf "k%d" (key_of ())) ~value:(string_of_int op)
    with
    | Ok () -> true
    | Error `Not_serving -> false
  in
  let load =
    App_fleet.open_loop fleet sim ~rng:arrivals ~start:t0 ~until:(t0 +. 0.5)
      ~rate:8_000. ~clients:300 ~submit
  in
  ignore (Sim.run ~until:(t0 +. 1.0) sim);
  Printf.bprintf out "[%s] events=%d offered=%d accepted=%d rejected=%d\n" name
    (Sim.events_processed sim) load.App_fleet.offered load.App_fleet.accepted
    load.App_fleet.rejected;
  Printf.bprintf out "[%s] %s\n" name (net_line (Net.stats net));
  Array.iteri
    (fun node b ->
      Printf.bprintf out "[%s] replica %d log=%d digest=%s\n" name node
        (Buffer.length b) (digest_of b))
    applies

(* ---------- kv fleet under a fixed fault script ---------- *)

(* Five Lww replicas under a fixed crash / partition / recover / heal script
   driven through App_fleet.run_script, with a steady put trickle: pins the
   fleet's fault interpreter and its incarnation numbering. *)
let kv_faults out ~name ~seed =
  let n = 5 in
  let sim = Sim.create ~seed () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init n Fun.id in
  let applies = Array.init n (fun _ -> Buffer.create 4096) in
  let make ~node ~inc =
    Kv.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
      ~on_apply:(fun ~origin ~key ~value ->
        Printf.bprintf applies.(node) "%d:%s=%s;" origin key value)
      ~config:Endpoint.default_config ~policy:Kv.Lww ()
  in
  let fleet =
    App_fleet.create ~sim ~nodes:universe ~make ~kill:Kv.kill
      ~is_alive:Kv.is_alive ~me:Kv.me
      ~history:(fun kv -> Vs_apps.Group_object.history (Kv.obj kv))
  in
  let script =
    [
      (2.2, Faults.Crash 1);
      (2.5, Faults.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
      (2.8, Faults.Recover 1);
      (3.1, Faults.Crash 4);
      (3.4, Faults.Heal);
      (3.6, Faults.Recover 4);
    ]
  in
  App_fleet.run_script fleet ~net script;
  let puts = ref 0 and refused = ref 0 in
  for i = 0 to 199 do
    ignore
      (Sim.at sim
         (2.0 +. (0.01 *. float_of_int i))
         (fun () ->
           match App_fleet.on_node fleet (i mod n) with
           | Some kv -> (
               match
                 Kv.put kv ~key:(Printf.sprintf "k%d" (i mod 7))
                   ~value:(string_of_int i)
               with
               | Ok () -> incr puts
               | Error `Not_serving -> incr refused)
           | None -> incr refused))
  done;
  ignore (Sim.run ~until:6.0 sim);
  Printf.bprintf out "[%s] events=%d puts=%d refused=%d live=%d\n" name
    (Sim.events_processed sim) !puts !refused
    (List.length (App_fleet.live fleet));
  Printf.bprintf out "[%s] incarnations=%s\n" name
    (String.concat ","
       (List.map (fun kv -> Proc_id.to_string (Kv.me kv)) (App_fleet.all_ever fleet)));
  Printf.bprintf out "[%s] %s\n" name (net_line (Net.stats net));
  Array.iteri
    (fun node b ->
      Printf.bprintf out "[%s] replica %d log=%d digest=%s\n" name node
        (Buffer.length b) (digest_of b))
    applies

(* ---------- mixed Fifo/Causal endpoints ---------- *)

let endpoints out ~name ~seed =
  let n = 5 in
  let sim = Sim.create ~seed () in
  let net_config =
    {
      Net.default_config with
      Net.delay_min = 0.001;
      delay_max = 0.040;
      drop_prob = 0.03;
      dup_prob = 0.03;
    }
  in
  let net = Net.create sim net_config in
  let universe = List.init n Fun.id in
  let logs = Array.init n (fun _ -> Buffer.create 4096) in
  let eps = Array.make n None in
  let rng = Sim.fork_rng sim in
  let next_value = ref 0 in
  let multicast node order =
    match eps.(node) with
    | Some ep when Endpoint.is_alive ep ->
        incr next_value;
        Endpoint.multicast ep ~order !next_value
    | Some _ | None -> ()
  in
  List.iter
    (fun node ->
      let callbacks =
        {
          Endpoint.on_view =
            (fun ev ->
              Printf.bprintf logs.(node) "V%s;"
                (Vs_gms.View.Id.to_string ev.Endpoint.view.Vs_gms.View.id));
          on_message =
            (fun ~sender value ->
              Printf.bprintf logs.(node) "%s:%d;" (Proc_id.to_string sender)
                value;
              (* Answer causally now and then, so real chains form. *)
              if !next_value < 400 && Rng.bool rng 0.08 then
                multicast node Endpoint.Causal);
        }
      in
      eps.(node) <-
        Some
          (Endpoint.create sim net ~me:(Proc_id.initial node) ~universe
             ~config:Endpoint.default_config ~callbacks))
    universe;
  ignore (Sim.run ~until:1.5 sim);
  for i = 0 to 119 do
    ignore
      (Sim.at sim
         (1.5 +. (0.005 *. float_of_int i))
         (fun () ->
           multicast (i mod n)
             (if i mod 4 = 0 then Endpoint.Causal else Endpoint.Fifo)))
  done;
  ignore
    (Sim.at sim 1.9 (fun () ->
         match eps.(n - 1) with Some ep -> Endpoint.kill ep | None -> ()));
  ignore (Sim.run ~until:5.0 sim);
  Printf.bprintf out "[%s] events=%d multicasts=%d\n" name
    (Sim.events_processed sim) !next_value;
  Printf.bprintf out "[%s] %s\n" name (net_line (Net.stats net));
  Array.iteri
    (fun node b ->
      Printf.bprintf out "[%s] process %d log=%d digest=%s\n" name node
        (Buffer.length b) (digest_of b))
    logs

(* ---------- campaigns ---------- *)

let script_coverage (script : Faults.script) =
  let count p = List.length (List.filter (fun (_, a) -> p a) script) in
  let corruptions =
    List.filter_map
      (fun (_, a) ->
        match a with
        | Faults.Corrupt (node, c) ->
            Some (Printf.sprintf "%d:%s" node (Faults.corruption_to_string c))
        | Faults.Partition _ | Faults.Heal | Faults.Crash _ | Faults.Recover _
          ->
            None)
      script
  in
  Printf.sprintf "crashes=%d partitions=%d corrupt=[%s]"
    (count (function Faults.Crash _ -> true | _ -> false))
    (count (function Faults.Partition _ -> true | _ -> false))
    (String.concat "," corruptions)

let campaign out (spec : Campaign.spec) =
  let name =
    Printf.sprintf "campaign %Ld %s%s" spec.Campaign.seed
      (Driver.protocol_to_string spec.Campaign.protocol)
      (if spec.Campaign.transient then " transient" else "")
  in
  let obs = Recorder.create ~level:Recorder.Protocol () in
  let o = Campaign.run ~obs spec in
  let entries = Recorder.entries obs in
  let suspects, unsuspects =
    List.fold_left
      (fun (s, u) (e : Recorder.entry) ->
        match e.Recorder.event with
        | Event.Suspect _ -> (s + 1, u)
        | Event.Unsuspect _ -> (s, u + 1)
        | _ -> (s, u))
      (0, 0) entries
  in
  Printf.bprintf out "[%s] loss=%h dup=%h %s\n" name
    spec.Campaign.knobs.Campaign.loss_prob
    spec.Campaign.knobs.Campaign.dup_prob
    (script_coverage spec.Campaign.script);
  Printf.bprintf out
    "[%s] events=%d installs=%d deliveries=%d eview_changes=%d violations=%d\n"
    name o.Campaign.events o.Campaign.installs o.Campaign.deliveries
    o.Campaign.eview_changes
    (List.length o.Campaign.violations);
  Printf.bprintf out "[%s] recording=%d suspects=%d unsuspects=%d digest=%s\n"
    name (List.length entries) suspects unsuspects
    (Digest.to_hex
       (Digest.string (Vs_obs.Export.jsonl_of_entries entries)));
  Printf.bprintf out "[%s] stable=%b distinct_views=%d quarantine=%s\n" name
    o.Campaign.stable o.Campaign.distinct_views
    (match o.Campaign.quarantine with
    | None -> "none"
    | Some q ->
        Printf.sprintf "bound=%d views=%d cut=%s quarantined=%d"
          q.Driver.q_bound q.Driver.q_views
          (match q.Driver.q_cut with Some c -> Printf.sprintf "%h" c | None -> "never")
          q.Driver.q_quarantined)

(* Seeds picked for coverage: every quick campaign crashes and partitions,
   several lose and duplicate messages, and the first transient script
   smears a member's reported stability prefix (Stability_smear). *)
let campaigns out =
  List.iter
    (fun (seed, protocol) ->
      campaign out (Campaign.generate ~protocol ~seed ~nodes:5 ~quick:true ()))
    [
      (1, Driver.Vsync); (2, Driver.Vsync); (3, Driver.Vsync); (4, Driver.Vsync);
      (5, Driver.Evs); (6, Driver.Evs); (7, Driver.Evs); (8, Driver.Evs);
    ];
  List.iter
    (fun (seed, protocol) ->
      campaign out
        (Campaign.generate ~protocol ~transient:true ~seed ~nodes:5 ~quick:true
           ()))
    [ (1, Driver.Vsync); (2, Driver.Evs); (3, Driver.Vsync); (6, Driver.Evs) ]

let fingerprint () =
  let out = Buffer.create 4096 in
  kv out ~name:"kv-unbatched" ~seed:4L ~batching:false;
  kv out ~name:"kv-pipelined" ~seed:5L ~batching:true;
  endpoints out ~name:"mixed-causal" ~seed:11L;
  campaigns out;
  kv_faults out ~name:"kv-faults" ~seed:6L;
  Buffer.contents out

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let () =
  match Array.to_list Sys.argv with
  | [ _; "--write"; path ] ->
      let oc = open_out_bin path in
      output_string oc (fingerprint ());
      close_out oc
  | [ _; path ] ->
      let expected = read_file path and got = fingerprint () in
      if not (String.equal expected got) then begin
        prerr_string "sim-fingerprint: schedule drifted from the committed sample\n";
        prerr_string "--- expected\n";
        prerr_string expected;
        prerr_string "+++ got\n";
        prerr_string got;
        exit 1
      end
  | _ ->
      prerr_endline "usage: sim_fingerprint.exe [--write] FILE";
      exit 2
