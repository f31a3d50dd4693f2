module Rng = Vs_util.Rng

type handle = {
  fire_at : float;
  seq : int;
  thunk : unit -> unit;
  mutable settled : bool;  (* fired or cancelled: [cancel] is then a no-op *)
  owner : t;
}

and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable live : int;  (* scheduled and not yet fired or cancelled *)
  (* The event queue: a binary min-heap of handles in [heap.(0 .. size-1)]
     ordered by (fire_at, seq).  Slots at and beyond [size] hold [vacant],
     so a fired or cancelled handle's thunk is not kept alive by the
     array. *)
  mutable heap : handle array;
  mutable size : int;
  vacant : handle;
  root_rng : Rng.t;
  obs : Vs_obs.Recorder.t;
  series : Vs_obs.Series.t option;
  tracer : Trace.t;
}

(* [a] fires before [b]: earlier time, ties broken by scheduling order.
   Event times are never NaN: [at] rejects anything not >= now. *)
(* vslint: alloc-free *)
let[@inline] earlier a b =
  a.fire_at < b.fire_at || (a.fire_at = b.fire_at && a.seq < b.seq)

(* The hole at [i] walks up until [h] may sit there. *)
let rec sift_up heap i h =
  if i = 0 then heap.(0) <- h
  else
    let p = (i - 1) / 2 in
    let parent = heap.(p) in
    if earlier h parent then begin
      heap.(i) <- parent;
      sift_up heap p h
    end
    else heap.(i) <- h

(* The hole at [i] walks down (towards the earlier child) until [h] may sit
   there; [n] is the heap size. *)
let rec sift_down heap n i h =
  let l = (2 * i) + 1 in
  if l >= n then heap.(i) <- h
  else
    let c = if l + 1 < n && earlier heap.(l + 1) heap.(l) then l + 1 else l in
    let child = heap.(c) in
    if earlier child h then begin
      heap.(i) <- child;
      sift_down heap n c h
    end
    else heap.(i) <- h

(* Insert [h]; the caller has made room ([size < Array.length heap]). *)
(* vslint: alloc-free *)
let push t h =
  let i = t.size in
  t.size <- i + 1;
  sift_up t.heap i h

(* Remove the root; the caller has checked [size > 0].  The last element
   sifts down from the root and its old slot is cleared. *)
(* vslint: alloc-free *)
let pop t =
  let n = t.size - 1 in
  t.size <- n;
  let last = t.heap.(n) in
  t.heap.(n) <- t.vacant;
  if n > 0 then sift_down t.heap n 0 last

(* The event queue's part of the zero-allocation contract, in the same
   "path:function" shape as [Net.zero_alloc_contract]: rule A1 proves each
   body (and every sift it calls) allocation-free, rule B1 pins this list to
   the annotated set, and the bench exports it next to its word counts.
   Scheduling still allocates the handle itself; the queue adds nothing. *)
let zero_alloc_contract =
  [ "lib/sim/sim.ml:earlier"; "lib/sim/sim.ml:push"; "lib/sim/sim.ml:pop" ]

let grow t =
  let heap = Array.make (2 * Array.length t.heap) t.vacant in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let create ?(seed = 1L) ?obs ?series () =
  let obs =
    match obs with Some r -> r | None -> Vs_obs.Recorder.create ()
  in
  (* The vsmon series taps the recorded stream via the recorder sink: off
     (None) by default, and when on it only reads timestamps already chosen
     by the schedule — no timers, no RNG draws — so attaching it leaves the
     run byte-identical. *)
  (match series with
  | None -> ()
  | Some s ->
      ignore
        (Vs_obs.Recorder.add_sink obs (Vs_obs.Series.observe s)
          : Vs_obs.Recorder.sink_handle));
  let root_rng = Rng.create seed and tracer = Trace.of_recorder obs in
  let rec t =
    {
      clock = 0.;
      next_seq = 0;
      processed = 0;
      live = 0;
      heap = [||];
      size = 0;
      vacant;
      root_rng;
      obs;
      series;
      tracer;
    }
  and vacant =
    {
      fire_at = infinity;
      seq = max_int;
      thunk = ignore;
      settled = true;
      owner = t;
    }
  in
  t.heap <- Array.make 64 vacant;
  t

let now t = t.clock

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

let trace t = t.tracer

let obs t = t.obs

let series t = t.series

let finish_series t =
  match t.series with
  | None -> ()
  | Some s -> Vs_obs.Series.finish s ~now:t.clock

let emit t event = Vs_obs.Recorder.emit t.obs ~time:t.clock event

let obs_on t = Vs_obs.Recorder.protocol_on t.obs

(* vslint: alloc-free *)
let obs_full t = Vs_obs.Recorder.full_on t.obs

let record t ~component message =
  Trace.record t.tracer ~time:t.clock ~component message

let at t fire_at thunk =
  if not (fire_at >= t.clock) then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" fire_at t.clock);
  let h = { fire_at; seq = t.next_seq; thunk; settled = false; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  if t.size = Array.length t.heap then grow t;
  push t h;
  h

let after t delay thunk =
  if delay < 0. then invalid_arg "Sim.after: negative delay";
  at t (t.clock +. delay) thunk

let cancel h =
  if not h.settled then begin
    h.settled <- true;
    h.owner.live <- h.owner.live - 1
  end

(* Cancelled entries are skipped lazily on pop; the live count is maintained
   eagerly on push/cancel/fire so this is O(1). *)
let pending t = t.live

let events_processed t = t.processed

type stop_reason = Quiescent | Reached_until | Event_budget

(* Drop cancelled handles off the top of the queue, so the root (if any)
   is the next event to fire. *)
let rec skip_cancelled t =
  if t.size > 0 && t.heap.(0).settled then begin
    pop t;
    skip_cancelled t
  end

let step t =
  skip_cancelled t;
  if t.size = 0 then false
  else begin
    let h = t.heap.(0) in
    pop t;
    h.settled <- true;
    t.clock <- h.fire_at;
    t.processed <- t.processed + 1;
    t.live <- t.live - 1;
    h.thunk ();
    true
  end

let run ?until ?max_events t =
  let budget = match max_events with Some n -> n | None -> max_int in
  let horizon = match until with Some u -> u | None -> infinity in
  let rec loop remaining =
    if remaining <= 0 then Event_budget
    else begin
      skip_cancelled t;
      if t.size = 0 then Quiescent
      else if t.heap.(0).fire_at > horizon then begin
        t.clock <- max t.clock horizon;
        Reached_until
      end
      else begin
        ignore (step t);
        loop (remaining - 1)
      end
    end
  in
  loop budget
