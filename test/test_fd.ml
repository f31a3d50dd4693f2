(* Tests for the heartbeat failure detector: detection, false suspicion
   under partition, recovery with new incarnations, graceful forget. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Fd = Vs_fd.Fd

let check = Alcotest.check

type msg = Heartbeat

(* A minimal stack: each node runs one FD over a shared network. *)
type node = { proc : Proc_id.t; fd : Fd.t }

let make_stack ?(n = 3) ?(config = Fd.default_config) sim net =
  let universe = List.init n (fun i -> i) in
  let nodes = Hashtbl.create n in
  let boot node_id inc =
    let me = Proc_id.make ~node:node_id ~inc in
    let fd = ref None in
    Net.register net me (fun env ->
        match env.Net.payload with
        | Heartbeat -> (
            match !fd with
            | Some f -> Fd.heartbeat_received f ~from:env.Net.src
            | None -> ()));
    let f =
      Fd.create sim ~me ~universe ~config
        ~send_heartbeat:(fun ~dst_node ->
          Net.send_node net ~src:me ~dst_node Heartbeat)
        ~on_change:(fun _ -> ())
    in
    fd := Some f;
    Hashtbl.replace nodes node_id { proc = me; fd = f }
  in
  List.iter (fun i -> boot i 0) universe;
  (nodes, boot)

let reachable_nodes node =
  List.map (fun (p : Proc_id.t) -> p.Proc_id.node) (Fd.reachable node.fd)

let test_mutual_detection () =
  let sim = Sim.create ~seed:21L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  Hashtbl.iter
    (fun _ node ->
      check (Alcotest.list Alcotest.int) "everyone sees everyone" [ 0; 1; 2 ]
        (reachable_nodes node))
    nodes

let test_crash_detection () =
  let sim = Sim.create ~seed:22L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let victim = Hashtbl.find nodes 2 in
  Fd.stop victim.fd;
  Net.crash net victim.proc;
  (* Suspicion must arrive within timeout + one period (plus slack). *)
  ignore (Sim.run ~until:(0.5 +. 0.100 +. 0.030 +. 0.050) sim);
  check (Alcotest.list Alcotest.int) "crash suspected" [ 0; 1 ]
    (reachable_nodes (Hashtbl.find nodes 0));
  check (Alcotest.list Alcotest.int) "suspected by all" [ 0; 1 ]
    (reachable_nodes (Hashtbl.find nodes 1))

let test_partition_false_suspicion_and_repair () =
  let sim = Sim.create ~seed:23L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:1.0 sim);
  check (Alcotest.list Alcotest.int) "p0 alone" [ 0 ]
    (reachable_nodes (Hashtbl.find nodes 0));
  check (Alcotest.list Alcotest.int) "p1 sees majority side" [ 1; 2 ]
    (reachable_nodes (Hashtbl.find nodes 1));
  (* The suspicion was false: nobody crashed.  Healing repairs it. *)
  Net.heal net;
  ignore (Sim.run ~until:1.5 sim);
  check (Alcotest.list Alcotest.int) "heal restores reachability" [ 0; 1; 2 ]
    (reachable_nodes (Hashtbl.find nodes 0))

let test_recovery_new_incarnation () =
  let sim = Sim.create ~seed:24L () in
  let net = Net.create sim Net.default_config in
  let nodes, boot = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let victim = Hashtbl.find nodes 2 in
  Fd.stop victim.fd;
  Net.crash net victim.proc;
  ignore (Sim.run ~until:1.0 sim);
  boot 2 1;
  ignore (Sim.run ~until:1.5 sim);
  let survivors = Fd.reachable (Hashtbl.find nodes 0).fd in
  check Alcotest.bool "new incarnation visible" true
    (List.exists (fun p -> Proc_id.equal p (Proc_id.make ~node:2 ~inc:1)) survivors);
  check Alcotest.bool "old incarnation gone" true
    (not (List.exists (fun p -> Proc_id.equal p (Proc_id.initial 2)) survivors))

let test_forget () =
  let sim = Sim.create ~seed:25L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let n0 = Hashtbl.find nodes 0 in
  (* A leave announcement lets peers drop the process immediately, without
     waiting out the timeout... *)
  Fd.forget n0.fd (Hashtbl.find nodes 2).proc;
  check (Alcotest.list Alcotest.int) "forgotten immediately" [ 0; 1 ]
    (reachable_nodes n0);
  (* ...but a live peer that keeps heartbeating comes right back. *)
  ignore (Sim.run ~until:1.0 sim);
  check (Alcotest.list Alcotest.int) "live peer reappears" [ 0; 1; 2 ]
    (reachable_nodes n0)

let test_change_notifications () =
  let sim = Sim.create ~seed:26L () in
  let net = Net.create sim Net.default_config in
  let me = Proc_id.initial 0 in
  let changes = ref 0 in
  let fd = ref None in
  Net.register net me (fun env ->
      match env.Net.payload with
      | Heartbeat -> (
          match !fd with
          | Some f -> Fd.heartbeat_received f ~from:env.Net.src
          | None -> ()));
  let f =
    Fd.create sim ~me ~universe:[ 0; 1 ] ~config:Fd.default_config
      ~send_heartbeat:(fun ~dst_node ->
        Net.send_node net ~src:me ~dst_node Heartbeat)
      ~on_change:(fun _ -> incr changes)
  in
  fd := Some f;
  ignore (Sim.run ~until:1.0 sim);
  check Alcotest.int "no peer, no change events" 0 !changes

let test_config_validation () =
  let sim = Sim.create () in
  check Alcotest.bool "timeout must exceed period" true
    (try
       ignore
         (Fd.create sim ~me:(Proc_id.initial 0) ~universe:[ 0 ]
            ~config:{ Fd.period = 0.1; timeout = 0.05 }
            ~send_heartbeat:(fun ~dst_node:_ -> ())
            ~on_change:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_stop () =
  let sim = Sim.create ~seed:27L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  let n0 = Hashtbl.find nodes 0 in
  Fd.stop n0.fd;
  ignore (Sim.run ~until:1.0 sim);
  (* A stopped detector never updates. *)
  check (Alcotest.list Alcotest.int) "stopped detector frozen" [ 0 ]
    (reachable_nodes n0)

(* The detector skips rebuilding its reachable set when the set provably
   has not changed.  Pin that shortcut against a reference model that
   recomputes the sorted fresh set from scratch on every refresh — every
   heartbeat, every forget of a known peer, every tick — over random
   sequences of heartbeats (several incarnations per node, the detector's
   own id among them), forgets and clock advances across the timeout. *)
type op = Hb of Proc_id.t | Forget of Proc_id.t | Advance of float

let op_to_string = function
  | Hb p -> "hb " ^ Proc_id.to_string p
  | Forget p -> "forget " ^ Proc_id.to_string p
  | Advance dt -> Printf.sprintf "advance %g" dt

let gen_op =
  let open QCheck.Gen in
  let proc =
    map2 (fun node inc -> Proc_id.make ~node ~inc) (int_range 0 3) (int_range 0 2)
  in
  frequency
    [
      (6, map (fun p -> Hb p) proc);
      (1, map (fun p -> Forget p) proc);
      (3, map (fun dt -> Advance dt) (oneofl [ 0.004; 0.02; 0.045; 0.08; 0.099; 0.101; 0.2 ]));
    ]

let model_matches ops =
  let config = Fd.default_config in
  let me = Proc_id.initial 0 in
  let sim = Sim.create ~seed:31L () in
  let heard = Hashtbl.create 16 in
  let model_current = ref [ me ] and expected = ref [] and got = ref [] in
  let model_refresh () =
    let now = Sim.now sim in
    let fresh =
      Vs_util.Hashtblx.sorted_bindings ~cmp:Proc_id.compare heard
      |> List.filter_map (fun (p, at) ->
             if now -. at < config.Fd.timeout then Some p else None)
    in
    let next = Proc_id.sort (me :: fresh) in
    if not (List.equal Proc_id.equal next !model_current) then begin
      model_current := next;
      expected := next :: !expected
    end
  in
  let fd =
    Fd.create sim ~me ~universe:[ 0; 1; 2; 3 ] ~config
      ~send_heartbeat:(fun ~dst_node ->
        (* A tick sends to nodes 1, 2, 3 and then refreshes at the same
           instant: the first send marks the model's tick refresh. *)
        if dst_node = 1 then model_refresh ())
      ~on_change:(fun set -> got := set :: !got)
  in
  List.iter
    (function
      | Hb p ->
          Fd.heartbeat_received fd ~from:p;
          if not (Proc_id.equal p me) then begin
            Hashtbl.replace heard p (Sim.now sim);
            model_refresh ()
          end
      | Forget p ->
          Fd.forget fd p;
          if Hashtbl.mem heard p then begin
            Hashtbl.remove heard p;
            model_refresh ()
          end
      | Advance dt -> ignore (Sim.run ~until:(Sim.now sim +. dt) sim))
    ops;
  let same a b = List.equal (List.equal Proc_id.equal) a b in
  List.equal Proc_id.equal (Fd.reachable fd) !model_current
  && same (List.rev !got) (List.rev !expected)

let prop_matches_reference_model =
  QCheck.Test.make ~name:"reachable set and on_change match a rebuild-always model"
    ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_op))
    model_matches

let () =
  Alcotest.run "vs_fd"
    [
      ( "detector",
        [
          Alcotest.test_case "mutual detection" `Quick test_mutual_detection;
          Alcotest.test_case "crash detection latency" `Quick test_crash_detection;
          Alcotest.test_case "false suspicion and repair" `Quick
            test_partition_false_suspicion_and_repair;
          Alcotest.test_case "recovery incarnation" `Quick
            test_recovery_new_incarnation;
          Alcotest.test_case "forget" `Quick test_forget;
          Alcotest.test_case "change notifications" `Quick
            test_change_notifications;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "stop" `Quick test_stop;
          QCheck_alcotest.to_alcotest prop_matches_reference_model;
        ] );
    ]
