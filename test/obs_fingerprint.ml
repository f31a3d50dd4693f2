(* dune build @obs-fingerprint — a fingerprint of the lib/obs analyses over
   fixed Full-level recordings, compared byte-for-byte against the
   committed sample.

   - a dozen full-length campaigns (both protocols, with loss, duplication,
     partitions and crashes drawn by the campaign generator), so that
     arrival-time drops ("partition-inflight", "dst-dead") and duplicated
     copies occur;
   - one short batched kv fleet, so [Wire.Batch] fan-out (one wire event
     per carried identity) and node-addressed sends ([inc = -1] heartbeat
     destinations resolved at delivery) occur.

   For each recording it prints the stream size and drop reasons (the
   coverage the sample claims), the happened-before DAG's stats, a digest
   of every node's sorted predecessor list, the orphan receives, digests of
   the Critpath, Stall, Metrics and Lineage outputs, and the campaign's
   straggler verdict ([Driver.straggler]).  The DAG's edge set is otherwise pinned nowhere, so
   this is the guard a change to the matching in Causal (or to the anchor
   keys of the other folds) is held to.  Regenerate only after an
   intentional change to an analysis with
     dune exec test/obs_fingerprint.exe -- --write test/obs_fingerprint.txt *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint
module Kv = Vs_apps.Kv_store
module App_fleet = Vs_exp.App_fleet
module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Stall = Vs_obs.Stall
module Metrics = Vs_obs.Metrics
module Lineage = Vs_obs.Lineage
module Json = Vs_obs.Json
module Campaign = Vs_check.Campaign
module Driver = Vs_harness.Driver

let digest s = Digest.to_hex (Digest.string s)

let kind_char = function
  | Causal.Program -> 'p'
  | Causal.Message -> 'm'
  | Causal.Barrier -> 'b'

let preds_digest dag =
  let b = Buffer.create 65536 in
  Array.iter
    (fun (nd : Causal.node) ->
      let ps = List.sort compare (Causal.preds dag nd.Causal.id) in
      Printf.bprintf b "%d:" nd.Causal.id;
      List.iter (fun (j, k) -> Printf.bprintf b "%d%c," j (kind_char k)) ps;
      Buffer.add_char b ';')
    (Causal.nodes dag);
  digest (Buffer.contents b)

let stall_digest attrs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (a : Stall.attr) ->
      Printf.bprintf b "%s %s %h %h %h %h\n"
        (Event.proc_to_string a.Stall.a_proc)
        (Event.vid_to_string a.Stall.a_vid)
        a.Stall.a_time a.Stall.a_propose_wait a.Stall.a_flush_wait
        a.Stall.a_stability_wait)
    attrs;
  digest (Buffer.contents b)

let lineage_digest (l : Lineage.t) =
  let b = Buffer.create 65536 in
  List.iter
    (fun lc -> Printf.bprintf b "%s\n" (Lineage.lifecycle_summary lc))
    l.Lineage.lifecycles;
  List.iter
    (fun (tl : Lineage.timeline) ->
      Printf.bprintf b "%s:" (Event.proc_to_string tl.Lineage.tl_proc);
      List.iter
        (fun (vs : Lineage.view_span) ->
          Printf.bprintf b " %s@%h" (Event.vid_to_string vs.Lineage.vs_vid)
            vs.Lineage.vs_from)
        tl.Lineage.tl_views;
      List.iter
        (fun (ms : Lineage.mode_span) ->
          Printf.bprintf b " %s@%h/%s" ms.Lineage.ms_mode ms.Lineage.ms_from
            ms.Lineage.ms_cause)
        tl.Lineage.tl_modes;
      Buffer.add_char b '\n')
    l.Lineage.timelines;
  Buffer.add_string b (Lineage.to_mermaid l.Lineage.graph);
  digest (Buffer.contents b)

(* Drop reasons, node-addressed sends and batch copies in the stream: the
   coverage a recording contributes, printed so a reader of the sample can
   see that every matching case is exercised. *)
let coverage entries =
  let reasons = Hashtbl.create 8 in
  let node_addressed = ref 0 and batch = ref 0 and dups = ref 0 in
  List.iter
    (fun (e : Recorder.entry) ->
      match e.Recorder.event with
      | Event.Drop { reason; _ } ->
          let c = Option.value ~default:0 (Hashtbl.find_opt reasons reason) in
          Hashtbl.replace reasons reason (c + 1)
      | Event.Send { dst; kind; _ } ->
          if dst.Event.inc < 0 then incr node_addressed;
          if kind = "batch" then incr batch
      | Event.Dup _ -> incr dups
      | _ -> ())
    entries;
  let drops =
    Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare reasons
    |> List.map (fun (r, c) -> Printf.sprintf "%s=%d" r c)
    |> String.concat ","
  in
  Printf.sprintf "drops=[%s] dups=%d node-sends=%d batch-sends=%d" drops !dups
    !node_addressed !batch

let analyse out ~name ?straggler entries =
  let dag = Causal.of_entries entries in
  let s = Causal.stats dag in
  let cp = Critpath.of_dag dag in
  Printf.bprintf out "[%s] entries=%d %s\n" name (List.length entries)
    (coverage entries);
  Printf.bprintf out
    "[%s] dag nodes=%d program=%d message=%d barrier=%d orphans=%d \
     valid=%b\n"
    name s.Causal.c_nodes s.Causal.c_program_edges s.Causal.c_message_edges
    s.Causal.c_barrier_edges s.Causal.c_orphan_recvs
    (Result.is_ok (Causal.validate dag));
  Printf.bprintf out "[%s] preds=%s orphan-ids=[%s]\n" name (preds_digest dag)
    (String.concat "," (List.map string_of_int (Causal.orphans dag)));
  Printf.bprintf out "[%s] critpath=%s stall=%s metrics=%s lineage=%s\n" name
    (digest (Json.to_string (Critpath.to_json cp)))
    (stall_digest (Stall.of_entries entries))
    (digest (Json.to_string (Metrics.to_json (Metrics.of_entries entries))))
    (lineage_digest (Lineage.of_entries entries));
  Option.iter
    (fun st ->
      Printf.bprintf out "[%s] straggler=%s\n" name
        (match st with
        | Some (p, c) -> Printf.sprintf "%s/%h" p c
        | None -> "none"))
    straggler

(* ---------- campaigns ---------- *)

(* Seeds 120-125 under both protocols; the generator draws loss, partitions
   and crashes, and duplication is forced on for two seeds (it draws almost
   none in this range) so duplicated copies are matched too. *)
let campaign_specs =
  List.concat_map
    (fun seed ->
      let dup = if seed = 123 || seed = 124 then Some 0.05 else None in
      [
        (Driver.Vsync, seed, 4 + (seed mod 2), dup);
        (Driver.Evs, seed, 4 + ((seed + 1) mod 2), dup);
      ])
    [ 120; 121; 122; 123; 124; 125 ]

let campaign out (protocol, seed, nodes, dup) =
  let spec = Campaign.generate ~protocol ~seed ~nodes ~quick:false () in
  let spec =
    match dup with
    | Some dup_prob ->
        { spec with Campaign.knobs = { spec.Campaign.knobs with Campaign.dup_prob } }
    | None -> spec
  in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let outcome = Campaign.run ~obs:recorder spec in
  let name =
    Printf.sprintf "%s-%d-n%d"
      (Driver.protocol_to_string protocol)
      seed nodes
  in
  Printf.bprintf out "[%s] %s violations=%d\n" name (Campaign.describe spec)
    (List.length outcome.Campaign.violations);
  analyse out ~name ~straggler:(Driver.straggler recorder)
    (Recorder.entries recorder)

(* ---------- batched kv fleet ---------- *)

let kv_fleet out ~name ~seed =
  let replicas = 4 in
  let config =
    { Endpoint.default_config with Endpoint.batching = true; pipeline_depth = 4 }
  in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let sim = Sim.create ~seed ~obs:recorder () in
  let net =
    Kv.make_net sim { Net.default_config with Net.drop_prob = 0.02; dup_prob = 0.02 }
  in
  let universe = List.init replicas Fun.id in
  let make ~node ~inc =
    Kv.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
      ~on_apply:(fun ~origin:_ ~key:_ ~value:_ -> ())
      ~config ~policy:Kv.Lww ()
  in
  let fleet =
    App_fleet.create ~sim ~nodes:universe ~make ~kill:Kv.kill
      ~is_alive:Kv.is_alive ~me:Kv.me
      ~history:(fun kv -> Vs_apps.Group_object.history (Kv.obj kv))
  in
  ignore (Sim.run ~until:2.0 sim);
  let t0 = Sim.now sim in
  let arrivals = Sim.fork_rng sim in
  let submit kv ~client:_ ~op =
    match Kv.put kv ~key:(Printf.sprintf "k%d" (op mod 16)) ~value:"v" with
    | Ok () -> true
    | Error `Not_serving -> false
  in
  let (_ : App_fleet.load) =
    App_fleet.open_loop fleet sim ~rng:arrivals ~start:t0 ~until:(t0 +. 0.1)
      ~rate:2_000. ~clients:50 ~submit
  in
  ignore (Sim.run ~until:(t0 +. 0.4) sim);
  analyse out ~name (Recorder.entries recorder)

let fingerprint () =
  let out = Buffer.create 8192 in
  List.iter (campaign out) campaign_specs;
  kv_fleet out ~name:"kv-batched" ~seed:6L;
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
        prerr_string "obs-fingerprint: lib/obs analyses drifted from the committed sample\n";
        prerr_string "--- expected\n";
        prerr_string expected;
        prerr_string "+++ got\n";
        prerr_string got;
        exit 1
      end
  | _ ->
      prerr_endline "usage: obs_fingerprint.exe [--write] FILE";
      exit 2
