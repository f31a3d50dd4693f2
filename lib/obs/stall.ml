(* Flush-stall attribution — splitting each view installation's latency into
   the three waits of the paper's cost model (Sections 2 and 6):

   - propose-wait:    first Propose of the view until this member's own
                      flush-ack — the member is draining and flushing its
                      unstable messages;
   - flush-ack-wait:  this member's flush-ack until the last flush-ack of
                      the view it had to hear — waiting on the slowest peer
                      to reach the sync barrier;
   - stability-wait:  last flush-ack until this member's install — the
                      coordinator's stability decision and the install
                      delivery itself.

   The segments are reconstructed from the recorded Propose / Flush /
   Install events alone (one forward pass, events in time order), so the
   report works on any Protocol-level recording — live runs, corpus repros,
   replayed traces — with no extra instrumentation in the protocol. *)

type attr = {
  a_proc : Event.proc;
  a_vid : Event.vid;
  a_time : float;  (* install time *)
  a_propose_wait : float;
  a_flush_wait : float;
  a_stability_wait : float;
}

let total a = a.a_propose_wait +. a.a_flush_wait +. a.a_stability_wait

let of_entries (entries : Recorder.entry list) =
  (* first propose time per vid *)
  let proposed : float Event.Vid_tbl.t = Event.Vid_tbl.create 16 in
  (* this member's first flush-ack per (proc, vid) *)
  let self_flush : float Event.Proc_vid_tbl.t = Event.Proc_vid_tbl.create 32 in
  (* newest flush-ack seen so far per vid — at an Install event this is by
     construction the last flush at or before the install *)
  let last_flush : float Event.Vid_tbl.t = Event.Vid_tbl.create 16 in
  let acc = ref [] in
  List.iter
    (fun (e : Recorder.entry) ->
      match e.event with
      | Event.Propose { vid; _ } ->
          if not (Event.Vid_tbl.mem proposed vid) then
            Event.Vid_tbl.replace proposed vid e.time
      | Event.Flush { proc; vid; _ } ->
          let skey = (proc, vid) in
          if not (Event.Proc_vid_tbl.mem self_flush skey) then
            Event.Proc_vid_tbl.replace self_flush skey e.time;
          Event.Vid_tbl.replace last_flush vid e.time
      | Event.Install { proc; vid; _ } -> (
          match Event.Vid_tbl.find_opt proposed vid with
          | None -> ()  (* truncated recording: no propose retained *)
          | Some t_prop ->
              let t_install = e.time in
              let t_self =
                match Event.Proc_vid_tbl.find_opt self_flush (proc, vid) with
                | Some t -> t
                | None -> t_prop  (* no own flush: joined mid-change *)
              in
              let t_last =
                match Event.Vid_tbl.find_opt last_flush vid with
                | Some t -> max t t_self
                | None -> t_self
              in
              (* Clamp each boundary into [t_prop, t_install] so segments
                 stay non-negative even on reordered/partial recordings. *)
              let clamp x = min t_install (max t_prop x) in
              let t_self = clamp t_self and t_last = clamp t_last in
              let t_last = max t_last t_self in
              acc :=
                {
                  a_proc = proc;
                  a_vid = vid;
                  a_time = t_install;
                  a_propose_wait = t_self -. t_prop;
                  a_flush_wait = t_last -. t_self;
                  a_stability_wait = t_install -. t_last;
                }
                :: !acc)
      | _ -> ())
    entries;
  List.rev !acc

(* --- per-window aggregation ---------------------------------------------- *)

type window_row = {
  w_index : int;
  w_installs : int;
  w_propose : float;  (* summed seconds per segment *)
  w_flush : float;
  w_stability : float;
}

let windows ~interval attrs =
  if not (interval > 0.) then invalid_arg "Stall.windows: interval must be > 0";
  (* Attrs arrive in install-time order, so consecutive grouping suffices —
     no hashtable enumeration, deterministic output order. *)
  let close acc = function
    | None -> acc
    | Some row -> row :: acc
  in
  let step (acc, current) a =
    let idx = int_of_float (floor (a.a_time /. interval)) in
    let acc, row =
      match current with
      | Some r when r.w_index = idx -> (acc, r)
      | (Some _ | None) as prev ->
          ( close acc prev,
            {
              w_index = idx;
              w_installs = 0;
              w_propose = 0.;
              w_flush = 0.;
              w_stability = 0.;
            } )
    in
    ( acc,
      Some
        {
          row with
          w_installs = row.w_installs + 1;
          w_propose = row.w_propose +. a.a_propose_wait;
          w_flush = row.w_flush +. a.a_flush_wait;
          w_stability = row.w_stability +. a.a_stability_wait;
        } )
  in
  let acc, current = List.fold_left step ([], None) attrs in
  List.rev (close acc current)

let window_total r = r.w_propose +. r.w_flush +. r.w_stability

(* --- rendering ----------------------------------------------------------- *)

let to_table ~interval attrs =
  let table =
    Vs_stats.Table.create
      ~title:
        (Printf.sprintf
           "stall attribution: install latency split per %g s window \
            (propose-wait / flush-ack-wait / stability-wait)"
           interval)
      ~columns:
        [
          "window";
          "installs";
          "propose (s)";
          "flush-ack (s)";
          "stability (s)";
          "dominant";
        ]
  in
  List.iter
    (fun r ->
      let dominant =
        if r.w_propose >= r.w_flush && r.w_propose >= r.w_stability then
          "propose"
        else if r.w_flush >= r.w_stability then "flush-ack"
        else "stability"
      in
      Vs_stats.Table.add_row table
        [
          Vs_stats.Table.fint r.w_index;
          Vs_stats.Table.fint r.w_installs;
          Vs_stats.Table.ffloat ~decimals:4 r.w_propose;
          Vs_stats.Table.ffloat ~decimals:4 r.w_flush;
          Vs_stats.Table.ffloat ~decimals:4 r.w_stability;
          dominant;
        ])
    (windows ~interval attrs);
  table

let to_json ~interval attrs =
  let row r =
    Json.Obj
      [
        ("window", Json.Int r.w_index);
        ("installs", Json.Int r.w_installs);
        ("propose_wait", Json.Float r.w_propose);
        ("flush_ack_wait", Json.Float r.w_flush);
        ("stability_wait", Json.Float r.w_stability);
      ]
  in
  Json.Obj
    [
      ("interval", Json.Float interval);
      ("windows", Json.Arr (List.map row (windows ~interval attrs)));
    ]
