(* vspath tests: the causal DAG's structural invariants under loss,
   duplication and batching; the critical-path decomposition's exact
   telescoping to view.install-latency and its agreement with the Stall
   attribution; byte-determinism of the folded-stack and diff-runs
   renderings; the multi-sink recorder regression; and the clean-vs-corrupt
   rundiff fixture that must name the corrupted field. *)

module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Series = Vs_obs.Series
module Stall = Vs_obs.Stall
module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Flame = Vs_obs.Flame
module Rundiff = Vs_obs.Rundiff
module Json = Vs_obs.Json
module Campaign = Vs_check.Campaign
module Repro = Vs_check.Repro
module Driver = Vs_harness.Driver

(* One Full-level recording of a seed-derived campaign: the generator
   randomizes loss, duplication and delay jitter per seed, so sweeping a
   seed list sweeps the fault space the DAG invariants must hold under. *)
let record ?(nodes = 4) ~seed () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed ~nodes ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  Recorder.entries recorder

let seeds = [ 1; 2; 3; 5; 8; 13 ]

(* --- recorder multi-sink (satellite: removable sink handles) ------------- *)

let note n = Event.Note { component = "test"; message = string_of_int n }

let test_two_live_sinks () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let s = Series.create () in
  let c = Causal.collector () in
  let h_series = Recorder.add_sink recorder (Series.observe s) in
  ignore (Recorder.add_sink recorder (Causal.observe c) : Recorder.sink_handle);
  let spec = Campaign.generate ~seed:11 ~nodes:3 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  let entries = Recorder.entries recorder in
  let collected = Causal.collector_entries c in
  Alcotest.(check bool) "recording is non-trivial" true
    (List.length entries > 100);
  Alcotest.(check int) "collector saw every recorded event"
    (List.length entries) (List.length collected);
  Alcotest.(check bool) "collector stream identical to the recorder's" true
    (List.for_all2
       (fun (a : Recorder.entry) (b : Recorder.entry) ->
         a.Recorder.time = b.Recorder.time
         && String.equal
              (Event.render a.Recorder.event)
              (Event.render b.Recorder.event))
       entries collected);
  (* the series sink was live on the same emissions *)
  Series.finish s ~now:10.;
  Alcotest.(check bool) "series sink observed the run too" true
    (String.length (Json.to_string (Series.to_json s)) > 2);
  (* removing one sink detaches exactly that handle *)
  let before = List.length (Causal.collector_entries c) in
  Recorder.remove_sink recorder h_series;
  Recorder.emit recorder ~time:999. (note 1);
  Alcotest.(check int) "surviving sink still notified" (before + 1)
    (List.length (Causal.collector_entries c))

let test_remove_sink_is_exact () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let n1 = ref 0 and n2 = ref 0 in
  let h1 = Recorder.add_sink recorder (fun ~time:_ _ -> incr n1) in
  ignore
    (Recorder.add_sink recorder (fun ~time:_ _ -> incr n2)
      : Recorder.sink_handle);
  Recorder.emit recorder ~time:1. (note 1);
  Recorder.emit recorder ~time:2. (note 2);
  Recorder.emit recorder ~time:3. (note 3);
  Recorder.remove_sink recorder h1;
  Recorder.emit recorder ~time:4. (note 4);
  Recorder.emit recorder ~time:5. (note 5);
  (* removing twice (or removing a dead handle) is a no-op, not an error *)
  Recorder.remove_sink recorder h1;
  Recorder.emit recorder ~time:6. (note 6);
  Alcotest.(check int) "removed sink saw only the first three" 3 !n1;
  Alcotest.(check int) "surviving sink saw everything" 6 !n2;
  Alcotest.(check int) "recorder itself kept recording" 6
    (Recorder.count recorder)

(* --- DAG structural invariants (satellite: property sweep) --------------- *)

let test_dag_invariants () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let dag = Causal.of_entries entries in
      let st = Causal.stats dag in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: node per entry" seed)
        (List.length entries) st.Causal.c_nodes;
      (match Causal.validate dag with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "seed %d: DAG validation failed: %s" seed msg);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no orphan recvs" seed)
        0 st.Causal.c_orphan_recvs;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: orphan list empty" seed)
        [] (Causal.orphans dag);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: message edges exist" seed)
        true
        (st.Causal.c_message_edges > 0))
    seeds

(* --- typed matching against the string-keyed reference model ------------ *)

(* The DAG matcher as it stood when every key was a rendered string, kept
   verbatim as the model the typed [Causal.of_entries] must agree with edge
   for edge: same preds lists in the same order, same orphans, same stats. *)
module Oracle = struct
  let actors (ev : Event.t) =
    match ev with
    | Event.Send { src; _ } | Event.Dup { src; _ } -> [ src ]
    | Event.Recv { dst; _ } -> [ dst ]
    | Event.Drop { src; reason; _ } ->
        if reason = "src-dead" || reason = "partition" || reason = "loss" then
          [ src ]
        else []
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
        [ proc ]
    | Event.Partition _ | Event.Heal | Event.Quarantine _ | Event.Note _ -> []

  let copy_key ~kind ~(src : Event.proc) ~dst_node ~(msg : Event.msg option) =
    let id = match msg with Some m -> Event.msg_to_string m | None -> "-" in
    String.concat "|"
      [ kind; Event.proc_to_string src; string_of_int dst_node; id ]

  let of_entries (entries : Recorder.entry list) =
    let arr = Array.of_list entries in
    let n = Array.length arr in
    let g_preds = Array.make n [] in
    let p_edges = ref 0 and m_edges = ref 0 and b_edges = ref 0 in
    let add_edge kind src dst =
      g_preds.(dst) <- (src, kind) :: g_preds.(dst);
      match kind with
      | Causal.Program -> incr p_edges
      | Causal.Message -> incr m_edges
      | Causal.Barrier -> incr b_edges
    in
    let last_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let pending : (string, int Queue.t) Hashtbl.t = Hashtbl.create 256 in
    let propose_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let flushes_of : (string, int list) Hashtbl.t = Hashtbl.create 16 in
    let rev_orphans = ref [] in
    let push_copy key i =
      let q =
        match Hashtbl.find_opt pending key with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace pending key q;
            q
      in
      Queue.push i q
    in
    let pop_copy key =
      match Hashtbl.find_opt pending key with
      | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
      | Some _ | None -> None
    in
    Array.iteri
      (fun i (e : Recorder.entry) ->
        List.iter
          (fun p ->
            let k = Event.proc_to_string p in
            (match Hashtbl.find_opt last_of k with
            | Some j -> add_edge Causal.Program j i
            | None -> ());
            Hashtbl.replace last_of k i)
          (actors e.Recorder.event);
        match e.Recorder.event with
        | Event.Send { src; dst; kind; msg; _ }
        | Event.Dup { src; dst; kind; msg } ->
            push_copy (copy_key ~kind ~src ~dst_node:dst.Event.node ~msg) i
        | Event.Recv { src; dst; kind; msg } -> (
            match
              pop_copy (copy_key ~kind ~src ~dst_node:dst.Event.node ~msg)
            with
            | Some j -> add_edge Causal.Message j i
            | None -> rev_orphans := i :: !rev_orphans)
        | Event.Drop { src; dst; kind; reason; msg } ->
            if reason = "partition-inflight" || reason = "dst-dead" then (
              match
                pop_copy (copy_key ~kind ~src ~dst_node:dst.Event.node ~msg)
              with
              | Some j -> add_edge Causal.Message j i
              | None -> ())
        | Event.Propose { vid; _ } ->
            let vk = Event.vid_to_string vid in
            if not (Hashtbl.mem propose_of vk) then
              Hashtbl.replace propose_of vk i
        | Event.Flush { vid; _ } ->
            let vk = Event.vid_to_string vid in
            (match Hashtbl.find_opt propose_of vk with
            | Some j -> add_edge Causal.Barrier j i
            | None -> ());
            let prev =
              match Hashtbl.find_opt flushes_of vk with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace flushes_of vk (i :: prev)
        | Event.Install { vid; _ } ->
            let vk = Event.vid_to_string vid in
            (match Hashtbl.find_opt propose_of vk with
            | Some j -> add_edge Causal.Barrier j i
            | None -> ());
            List.iter
              (fun j -> add_edge Causal.Barrier j i)
              (match Hashtbl.find_opt flushes_of vk with
              | Some l -> List.rev l
              | None -> [])
        | _ -> ())
      arr;
    ( g_preds,
      List.rev !rev_orphans,
      {
        Causal.c_nodes = n;
        c_program_edges = !p_edges;
        c_message_edges = !m_edges;
        c_barrier_edges = !b_edges;
        c_orphan_recvs = List.length !rev_orphans;
      } )
end

(* Synthetic Full-level streams shaped like the recorder's: wire copies put
   on the wire by [Send] (some to a node-addressed [n<k>] destination) and
   [Dup], consumed by a [Recv] at a resolved incarnation or by an
   arrival-time [Drop]; send-time drops that never had a copy; [msg = None]
   control traffic; one (origin, seq) on several kinds and destinations;
   barrier events over a few view ids; environment events.  A random prefix
   is then cut off, so receives whose send fell outside the window become
   orphans, as in a bounded recorder. *)
let gen_stream : Recorder.entry list QCheck.Gen.t =
 fun st ->
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  (* few processes and identities, so keys differing in one field coexist *)
  let proc () = { Event.node = int 3; inc = int 2 } in
  let kinds = [ "data"; "relay"; "ack"; "batch" ] in
  let msg () =
    if int 3 = 0 then None
    else Some { Event.origin = { Event.node = int 2; inc = 0 }; mseq = int 3 }
  in
  let vid () =
    { Event.epoch = int 3; proposer = { Event.node = int 2; inc = int 2 } }
  in
  let dst () = if int 4 = 0 then { Event.node = int 3; inc = -1 } else proc () in
  (* in-flight copies, newest first: (src, dst, kind, msg) *)
  let flight = ref [] in
  let take () =
    match !flight with
    | [] -> None
    | l ->
        let k = int (List.length l) in
        flight := List.filteri (fun i _ -> i <> k) l;
        Some (List.nth l k)
  in
  (* a node-addressed copy is received by whichever incarnation is live *)
  let resolve (d : Event.proc) =
    if d.Event.inc < 0 then { d with Event.inc = int 2 } else d
  in
  let time = ref 0. in
  let len = 1 + int 150 in
  let events =
    List.init len (fun _ ->
        time := !time +. (float_of_int (int 3) *. 0.001);
        let ev =
          match int 14 with
          | 0 | 1 | 2 ->
              let src, dst, kind, msg =
                match !flight with
                | (src, d, k, msg) :: _ when int 2 = 0 ->
                    (* the same identity on another kind or destination *)
                    if int 2 = 0 then (src, d, pick kinds, msg)
                    else (src, dst (), k, msg)
                | _ -> (proc (), dst (), pick kinds, msg ())
              in
              flight := (src, dst, kind, msg) :: !flight;
              Event.Send { src; dst; kind; bytes = 8; msg }
          | 3 -> (
              match !flight with
              | [] -> Event.Heal
              | l ->
                  let ((src, dst, kind, msg) as c) = pick l in
                  flight := c :: !flight;
                  Event.Dup { src; dst; kind; msg })
          | 4 | 5 | 6 -> (
              match take () with
              | Some (src, dst, kind, msg) ->
                  Event.Recv { src; dst = resolve dst; kind; msg }
              | None ->
                  Event.Recv
                    { src = proc (); dst = proc (); kind = pick kinds; msg = msg () })
          | 7 -> (
              match take () with
              | Some (src, dst, kind, msg) ->
                  let reason = pick [ "partition-inflight"; "dst-dead" ] in
                  Event.Drop { src; dst = resolve dst; kind; reason; msg }
              | None -> Event.Crash { proc = proc () })
          | 8 ->
              (* send-time drops carry no copy; "dst-dead" is also the
                 arrival-time reason, so a stray one consumes a copy *)
              let reason = pick [ "src-dead"; "partition"; "loss"; "dst-dead" ] in
              Event.Drop
                { src = proc (); dst = dst (); kind = pick kinds; reason; msg = msg () }
          | 9 -> Event.Propose { proc = proc (); vid = vid (); members = [] }
          | 10 -> Event.Flush { proc = proc (); vid = vid (); seen = 0 }
          | 11 ->
              Event.Install { proc = proc (); vid = vid (); members = []; sync = 0 }
          | 12 -> Event.Suspect { proc = proc (); peer = proc () }
          | _ -> Event.Note { component = "test"; message = "n" }
        in
        { Recorder.time = !time; event = ev })
  in
  (* cut a prefix, as a bounded recorder does: receives whose send fell
     outside the window become orphans *)
  List.filteri (fun i _ -> i >= int (1 + (len / 3))) events

let arb_stream =
  QCheck.make gen_stream
    ~print:(fun es ->
      String.concat "\n"
        (List.map (fun (e : Recorder.entry) -> Event.render e.Recorder.event) es))

let prop_typed_matches_string_oracle =
  QCheck.Test.make ~name:"typed keys match the string-keyed oracle" ~count:500
    arb_stream (fun entries ->
      let dag = Causal.of_entries entries in
      let preds, orphans, stats = Oracle.of_entries entries in
      Array.iteri
        (fun i ps ->
          if Causal.preds dag i <> ps then
            QCheck.Test.fail_reportf "node %d: preds differ from the oracle" i)
        preds;
      Causal.orphans dag = orphans && Causal.stats dag = stats)

(* --- critical-path decomposition (satellite: sums and Stall agreement) --- *)

let test_critpath_sums_to_install_latency () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let cp = Critpath.of_entries entries in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: installs decomposed" seed)
        true
        (cp.Critpath.installs <> []);
      List.iter
        (fun ip ->
          let sum = Critpath.path_sum ip in
          if
            not
              (Critpath.close ~tol:Critpath.default_tol sum
                 ip.Critpath.ip_latency)
          then
            Alcotest.failf
              "seed %d: segments sum to %.12f but install latency is %.12f"
              seed sum ip.Critpath.ip_latency;
          (* segments tile the window chronologically: each begins where
             the previous ended *)
          ignore
            (List.fold_left
               (fun frontier (s : Critpath.segment) ->
                 if not (Critpath.close ~tol:Critpath.default_tol
                           s.Critpath.s_from frontier)
                 then
                   Alcotest.failf "seed %d: segment gap at %.12f" seed
                     s.Critpath.s_from;
                 s.Critpath.s_until)
               (ip.Critpath.ip_install_time -. ip.Critpath.ip_latency)
               ip.Critpath.ip_segments
              : float))
        cp.Critpath.installs)
    seeds

let test_critpath_agrees_with_stall () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let cp = Critpath.of_entries entries in
      let attrs = Stall.of_entries entries in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one path per stall attribution" seed)
        (List.length attrs)
        (List.length cp.Critpath.installs);
      Alcotest.(check bool)
        (Printf.sprintf
           "seed %d: flush/stability components agree with Stall" seed)
        true
        (Critpath.consistent_with_stall cp attrs))
    seeds

(* The harness builds the same verdict on request from a recording — but
   only from a Full-level one; below Full it answers [None] without building
   the DAG. *)
let test_straggler_on_request () =
  let spec = Campaign.generate ~seed:3 ~nodes:4 ~quick:true () in
  let full = Recorder.create ~level:Recorder.Full () in
  ignore (Campaign.run ~obs:full spec);
  let cp = Critpath.of_entries (Recorder.entries full) in
  let expect =
    Option.map
      (fun (p, c) -> (Event.proc_to_string p, c))
      cp.Critpath.straggler
  in
  Alcotest.(check (option (pair string (float 1e-12))))
    "straggler is the critpath verdict" expect (Driver.straggler full);
  Alcotest.(check bool) "full-level run has a verdict" true (expect <> None);
  let proto = Recorder.create ~level:Recorder.Protocol () in
  ignore (Campaign.run ~obs:proto spec);
  Alcotest.(check bool) "protocol-level run recorded events" true
    (Recorder.count proto > 0);
  Alcotest.(check (option (pair string (float 0.))))
    "protocol-level run has no verdict" None (Driver.straggler proto)

(* --- byte-determinism (satellite: folded stacks and diff-runs) ----------- *)

let test_folded_deterministic () =
  let one () = Flame.folded (Critpath.of_entries (record ~seed:3 ())) in
  let a = one () and b = one () in
  Alcotest.(check bool) "folded output non-empty" true (String.length a > 0);
  Alcotest.(check string) "folded stacks byte-identical" a b;
  let chrome () = Flame.chrome_of_entries (record ~seed:3 ()) in
  Alcotest.(check string) "chrome + critpath lanes byte-identical" (chrome ())
    (chrome ())

let test_diff_runs_deterministic () =
  let diff () =
    let a = record ~seed:5 () and b = record ~seed:5 () in
    Rundiff.diff ~a ~b
  in
  let d = diff () in
  (match d.Rundiff.d_divergence with
  | None -> ()
  | Some dv ->
      Alcotest.failf "identically-seeded runs diverged at event %d"
        dv.Rundiff.dv_index);
  Alcotest.(check int) "no ops only in A" 0 d.Rundiff.d_ops_only_a;
  Alcotest.(check int) "no ops only in B" 0 d.Rundiff.d_ops_only_b;
  Alcotest.(check string) "diff text byte-identical across reruns"
    (Rundiff.to_text d)
    (Rundiff.to_text (diff ()));
  Alcotest.(check string) "diff json byte-identical across reruns"
    (Json.to_string (Rundiff.to_json d))
    (Json.to_string (Rundiff.to_json (diff ())));
  (* different seeds must diverge, and every phase delta must be present *)
  let d2 = Rundiff.diff ~a:(record ~seed:5 ()) ~b:(record ~seed:6 ()) in
  Alcotest.(check bool) "different seeds diverge" true
    (d2.Rundiff.d_divergence <> None);
  Alcotest.(check bool) "phase deltas present" true
    (List.length d2.Rundiff.d_phases >= 10)

(* --- clean vs transient-corruption fixture (satellite 6) ----------------- *)

let load_fixture name =
  match Repro.load (Filename.concat "rundiff_fixtures" name) with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "fixture %s unreadable: %s" name msg

let test_rundiff_names_corrupted_field () =
  let run spec =
    let recorder = Recorder.create ~level:Recorder.Full () in
    let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
    Recorder.entries recorder
  in
  let clean = run (load_fixture "deps-truncate-clean.sexp") in
  let corrupt = run (load_fixture "deps-truncate-corrupt.sexp") in
  let d = Rundiff.diff ~a:clean ~b:corrupt in
  match d.Rundiff.d_divergence with
  | None -> Alcotest.fail "clean and corrupted runs did not diverge"
  | Some dv ->
      Alcotest.(check (option string))
        "first causal divergence names the corrupted field"
        (Some "stream.next") dv.Rundiff.dv_field;
      let contains sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      (* the corrupted side's event at the divergence is the injection (the
         harness note announcing it, immediately followed by the protocol's
         Corrupt record the field above came from) *)
      (match dv.Rundiff.dv_b with
      | Some sig_b ->
          Alcotest.(check bool) "divergent B event is the injection" true
            (contains "corrupt" sig_b)
      | None -> Alcotest.fail "divergence has no B-side event");
      let text = Rundiff.to_text d in
      Alcotest.(check bool) "text rendering names the field" true
        (contains "corrupted field: stream.next" text)

let () =
  Alcotest.run "vspath"
    [
      ( "recorder-sinks",
        [
          Alcotest.test_case "two live sinks" `Quick test_two_live_sinks;
          Alcotest.test_case "remove is exact" `Quick
            test_remove_sink_is_exact;
        ] );
      ( "causal-dag",
        [
          Alcotest.test_case "invariants" `Slow test_dag_invariants;
          QCheck_alcotest.to_alcotest prop_typed_matches_string_oracle;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "sums to install latency" `Slow
            test_critpath_sums_to_install_latency;
          Alcotest.test_case "agrees with stall" `Slow
            test_critpath_agrees_with_stall;
          Alcotest.test_case "straggler on request" `Quick
            test_straggler_on_request;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "folded stacks" `Quick test_folded_deterministic;
          Alcotest.test_case "diff-runs" `Quick test_diff_runs_deterministic;
        ] );
      ( "rundiff-fixture",
        [
          Alcotest.test_case "names corrupted field" `Quick
            test_rundiff_names_corrupted_field;
        ] );
    ]
