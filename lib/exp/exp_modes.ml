(* Experiment E1 — Figure 1: the empirical mode-transition matrix.

   A quorum-voted replicated-file fleet runs under a randomized fault
   campaign; every process's mode machine records the Figure-1 edges it
   takes.  The experiment reports the aggregated transition matrix and
   asserts that no illegal move ever occurred — the executable version of
   Figure 1. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Mode = Evs_core.Mode
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store
module Rf = Vs_apps.Replicated_file
module Go = Vs_apps.Group_object
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

type outcome = {
  counts : (Mode.transition * int) list;
  steps_total : int;
  illegal : int;
  runs : int;
}

let run_campaign ~seed ~n ~duration =
  let sim = Sim.create ~seed () in
  let net = Rf.make_net sim Net.default_config in
  let universe = List.init n (fun i -> i) in
  let store = Store.create () in
  let file = Rf.uniform_votes ~universe in
  let fleet =
    App_fleet.create ~sim ~nodes:universe
      ~make:(fun ~node ~inc ->
        Rf.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
          ~config:Endpoint.default_config ~file ~store ())
      ~kill:Rf.kill ~is_alive:Rf.is_alive ~me:Rf.me
      ~history:(fun f -> Go.history (Rf.obj f))
  in
  let rng = Sim.fork_rng sim in
  let script =
    Faults.random_script rng ~nodes:universe ~start:1.0 ~duration
      ~mean_gap:0.4 ()
  in
  App_fleet.run_script fleet ~net script;
  (* Background writes keep the object exercised. *)
  let rec pump time =
    if time < duration +. 1.0 then begin
      ignore
        (Sim.at sim time (fun () ->
             match App_fleet.live fleet with
             | [] -> ()
             | apps ->
                 let f = Vs_util.Rng.pick rng apps in
                 ignore (Rf.write f (Printf.sprintf "w%f" time))));
      pump (time +. 0.05)
    end
  in
  pump 0.5;
  ignore (Sim.run ~until:(duration +. 3.0) sim);
  let machines =
    List.map (fun f -> Go.machine (Rf.obj f)) (App_fleet.all_ever fleet)
  in
  let steps = List.concat_map Mode.Machine.history machines in
  let illegal =
    List.length
      (List.filter
         (fun (s : Mode.Machine.step) ->
           not
             (Mode.is_legal ~from:s.Mode.Machine.from_mode
                ~into:s.Mode.Machine.into_mode))
         steps)
  in
  let counts =
    List.concat_map Mode.Machine.transition_counts machines
    |> List.fold_left
         (fun acc (tr, n) ->
           let existing = try List.assoc tr acc with Not_found -> 0 in
           (tr, existing + n) :: List.remove_assoc tr acc)
         []
  in
  (counts, List.length steps, illegal)

let run ?(quick = false) () =
  let seeds = if quick then [ 1 ] else [ 1; 2; 3; 4; 5 ] in
  let duration = if quick then 4.0 else 12.0 in
  let merged =
    List.fold_left
      (fun acc seed ->
        let counts, steps, illegal =
          run_campaign ~seed:(Int64.of_int (seed * 31)) ~n:5 ~duration
        in
        {
          counts =
            List.fold_left
              (fun cs (tr, n) ->
                let existing = try List.assoc tr cs with Not_found -> 0 in
                (tr, existing + n) :: List.remove_assoc tr cs)
              acc.counts counts;
          steps_total = acc.steps_total + steps;
          illegal = acc.illegal + illegal;
          runs = acc.runs + 1;
        })
      { counts = []; steps_total = 0; illegal = 0; runs = 0 }
      seeds
  in
  let edge_of = function
    | Mode.Failure -> "Normal/Settling -> Reduced"
    | Mode.Repair -> "Reduced -> Settling"
    | Mode.Reconfigure -> "Normal/Settling -> Settling"
    | Mode.Reconcile -> "Settling -> Normal"
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E1 / Figure 1 — mode transitions over %d fault campaigns (%d \
            machine steps, %d illegal)"
           merged.runs merged.steps_total merged.illegal)
      ~columns:[ "transition"; "edge"; "count" ]
  in
  List.iter
    (fun tr ->
      let n = try List.assoc tr merged.counts with Not_found -> 0 in
      Table.add_row table
        [ Mode.transition_to_string tr; edge_of tr; Table.fint n ])
    [ Mode.Failure; Mode.Repair; Mode.Reconfigure; Mode.Reconcile ];
  (table, merged)

let tables ?quick () = [ fst (run ?quick ()) ]
