(* An event is one record that can be armed any number of times: a
   one-shot schedule arms its record once, a periodic schedule re-arms
   its one record after each firing, and a Net channel arms its
   delivery record once per message.  [queued] counts the record's
   occurrences in the queue; [cancel] takes them all out of the live
   count at once and they drain lazily.  [label] buckets the event for
   the profiler ("net.deliver.bgp", "masc.sweep", ...); the default
   "event" keeps unlabelled call sites free of per-schedule string
   building. *)
type event = {
  label : string;
  action : unit -> unit;
  mutable queued : int;
  mutable cancelled : bool;
}

type handle = event

(* A hook piggybacks on event execution and never schedules events of
   its own: [action false] runs after the first event at least
   [cadence] past [last], [action true] once when a run stops, at a
   horizon stop only if [at_horizon].  The monitor and the sampler are
   the two hooks. *)
type hook = { cadence : Time.t; mutable last : Time.t; at_horizon : bool; action : bool -> unit }

(* A float-only record is stored flat, so advancing the clock or noting
   activity does not box.  [last_activity] is the latest
   [note_activity] time, NaN before the first. *)
type clock = { mutable now : Time.t; mutable last_activity : Time.t }

(* A lane queues the occurrences armed with one fixed delay, oldest
   first, in a ring of three parallel arrays (time, seq, event) whose
   capacity is a power of two: empty until the first arm, then one
   slot, doubling when full.
   Every entry is [now + delay] with the next seq, and the clock never
   runs backwards, so the ring is already sorted by (time, seq). *)
type lane = {
  delay : Time.t;
  mutable l_times : Float.Array.t;
  mutable l_seqs : int array;
  mutable l_evs : event array;
  mutable l_head : int;
  mutable l_len : int;
}

(* The queue is a binary min-heap over three parallel arrays plus the
   lanes, all ordered by (time, seq), seq being the arm count shared by
   heap and lanes: equal-time events fire in scheduling order.  The
   next event is the earliest of the heap top and the lane heads.
   Arming and firing allocate nothing once the arrays have grown to the
   run's peak depth. *)
type t = {
  clk : clock;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  mutable lanes : lane array;
  mutable n_lanes : int;
  mutable next_seq : int;
  mutable live : int;
  mutable monitor : hook option;
  mutable sampler : hook option;
}

let m_scheduled = Metrics.counter "sim.events_scheduled"

let m_fired = Metrics.counter "sim.events_fired"

let m_cancelled = Metrics.counter "sim.events_cancelled"

let m_queue_max = Metrics.gauge "sim.queue_depth_max"

let m_virtual = Metrics.gauge "sim.virtual_seconds"

(* Fills dead queue slots so a fired event's closure is not retained. *)
let vacant = { label = ""; action = ignore; queued = 0; cancelled = true }

let initial_capacity = 16

(* Back to the state [create] returns, keeping the arrays grown so far
   and every lane (channels hold theirs).  A queued occurrence's event
   gets its [queued] count zeroed, so an event that outlives the reset
   (a channel's arrival) arms again from scratch.  Heap and lane order
   depend only on (time, seq), never on capacity or lane order, so a
   reset engine fires exactly what a fresh one would. *)
let reset t =
  for i = 0 to t.size - 1 do
    t.evs.(i).queued <- 0;
    t.evs.(i) <- vacant
  done;
  t.size <- 0;
  for k = 0 to t.n_lanes - 1 do
    let l = t.lanes.(k) in
    for j = 0 to l.l_len - 1 do
      let i = (l.l_head + j) land (Array.length l.l_evs - 1) in
      l.l_evs.(i).queued <- 0;
      l.l_evs.(i) <- vacant
    done;
    l.l_head <- 0;
    l.l_len <- 0
  done;
  t.clk.now <- Time.zero;
  t.clk.last_activity <- Float.nan;
  t.next_seq <- 0;
  t.live <- 0;
  t.monitor <- None;
  t.sampler <- None

let create () =
  let t =
    {
      clk = { now = Time.zero; last_activity = Float.nan };
      times = Float.Array.make initial_capacity 0.0;
      seqs = Array.make initial_capacity 0;
      evs = Array.make initial_capacity vacant;
      size = 0;
      lanes = [||];
      n_lanes = 0;
      next_seq = 0;
      live = 0;
      monitor = None;
      sampler = None;
    }
  in
  reset t;
  t

let now t = t.clk.now

(* --- The queue ------------------------------------------------------- *)

let before t i j =
  let ti = Float.Array.unsafe_get t.times i and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let move t ~from_ ~to_ =
  Float.Array.unsafe_set t.times to_ (Float.Array.unsafe_get t.times from_);
  t.seqs.(to_) <- t.seqs.(from_);
  t.evs.(to_) <- t.evs.(from_)

let grow t =
  let cap = Array.length t.evs in
  let times = Float.Array.make (2 * cap) 0.0 in
  let seqs = Array.make (2 * cap) 0 in
  let evs = Array.make (2 * cap) vacant in
  Float.Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.evs 0 evs 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.evs <- evs

(* Inserting is split so that no float crosses a call: the caller
   writes the entry's time into [times.(size)] (after [reserve]) and
   [insert] sifts it up.  The new entry carries the largest seq so far,
   so it rises only past strictly later times. *)
let reserve t = if t.size = Array.length t.evs then grow t

let count_armed t e =
  t.next_seq <- t.next_seq + 1;
  e.queued <- e.queued + 1;
  t.live <- t.live + 1;
  Metrics.incr m_scheduled;
  Metrics.set_max_int m_queue_max t.live

let insert t e =
  let time = Float.Array.unsafe_get t.times t.size in
  let i = ref t.size in
  while !i > 0 && time < Float.Array.unsafe_get t.times ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move t ~from_:parent ~to_:!i;
    i := parent
  done;
  Float.Array.unsafe_set t.times !i time;
  t.seqs.(!i) <- t.next_seq;
  t.evs.(!i) <- e;
  t.size <- t.size + 1;
  count_armed t e

(* Remove the root: sift the last entry down from the top, moving the
   hole with it, then park it in the hole. *)
let remove_min t =
  let e = t.evs.(0) in
  e.queued <- e.queued - 1;
  let last = t.size - 1 in
  t.size <- last;
  let i = ref 0 in
  let continue = ref (last > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= last then continue := false
    else begin
      let c = if l + 1 < last && before t (l + 1) l then l + 1 else l in
      if before t c last then begin
        move t ~from_:c ~to_:!i;
        i := c
      end
      else continue := false
    end
  done;
  if last > 0 then move t ~from_:last ~to_:!i;
  t.evs.(last) <- vacant

(* --- Lanes ----------------------------------------------------------- *)

let lane_grow l =
  let cap = Array.length l.l_evs in
  let cap' = max 1 (2 * cap) in
  let times = Float.Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  let evs = Array.make cap' vacant in
  for k = 0 to l.l_len - 1 do
    let i = (l.l_head + k) land (cap - 1) in
    Float.Array.unsafe_set times k (Float.Array.unsafe_get l.l_times i);
    seqs.(k) <- l.l_seqs.(i);
    evs.(k) <- l.l_evs.(i)
  done;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_evs <- evs;
  l.l_head <- 0

let lane_pop l =
  let i = l.l_head in
  let e = l.l_evs.(i) in
  e.queued <- e.queued - 1;
  l.l_evs.(i) <- vacant;
  l.l_head <- (i + 1) land (Array.length l.l_evs - 1);
  l.l_len <- l.l_len - 1

(* A source is where the next entry comes from: [heap] for the heap
   top, [i >= 0] for lane [i]'s head, [empty] when nothing is queued. *)
let heap = -1

let empty = -2

(* Whether lane [l]'s head comes before the head of source [b]. *)
let lane_before t l b =
  let tl = Float.Array.unsafe_get l.l_times l.l_head and sl = l.l_seqs.(l.l_head) in
  if b = heap then
    let tb = Float.Array.unsafe_get t.times 0 in
    tl < tb || (tl = tb && sl < t.seqs.(0))
  else
    let m = t.lanes.(b) in
    let tb = Float.Array.unsafe_get m.l_times m.l_head in
    tl < tb || (tl = tb && sl < m.l_seqs.(m.l_head))

(* The source of the earliest queued entry, cancelled or not. *)
let earliest t =
  let best = ref (if t.size > 0 then heap else empty) in
  for i = 0 to t.n_lanes - 1 do
    let l = Array.unsafe_get t.lanes i in
    if l.l_len > 0 && (!best = empty || lane_before t l !best) then best := i
  done;
  !best

let head_event t b =
  if b = heap then t.evs.(0)
  else
    let l = t.lanes.(b) in
    l.l_evs.(l.l_head)

let pop t b = if b = heap then remove_min t else lane_pop t.lanes.(b)

(* Inlined, so callers store and compare the head's time in place and
   no float crosses a call. *)
let[@inline] head_time t b =
  if b = heap then Float.Array.unsafe_get t.times 0
  else
    let l = t.lanes.(b) in
    Float.Array.unsafe_get l.l_times l.l_head

(* --- Scheduling ------------------------------------------------------ *)

let event ?(label = "event") action = { label; action; queued = 0; cancelled = false }

(* Queue [e] at [clock + delay].  [arm], [check_delay] and [arm_after]
   are inlined into their callers, so a delay the caller computed
   reaches the queue's float array unboxed. *)
let[@inline] arm t e delay =
  reserve t;
  Float.Array.unsafe_set t.times t.size (t.clk.now +. delay);
  insert t e

let check_time t fn time =
  if Float.is_nan time then invalid_arg (Printf.sprintf "Engine.%s: time is NaN" fn);
  if time < t.clk.now then
    invalid_arg
      (Printf.sprintf "Engine.%s: time %g before now %g" fn (Time.to_seconds time)
         (Time.to_seconds t.clk.now))

let[@inline] check_delay fn delay =
  if not (delay >= 0.0) then invalid_arg (Printf.sprintf "Engine.%s: negative or NaN delay" fn)

let lane t ~delay =
  check_delay "lane" delay;
  let rec find i =
    if i = t.n_lanes then begin
      let l =
        {
          delay;
          l_times = Float.Array.make 0 0.0;
          l_seqs = [||];
          l_evs = [||];
          l_head = 0;
          l_len = 0;
        }
      in
      if t.n_lanes = Array.length t.lanes then begin
        let lanes = Array.make (max 1 (2 * t.n_lanes)) l in
        Array.blit t.lanes 0 lanes 0 t.n_lanes;
        t.lanes <- lanes
      end;
      t.lanes.(t.n_lanes) <- l;
      t.n_lanes <- t.n_lanes + 1;
      l
    end
    else if t.lanes.(i).delay = delay then t.lanes.(i)
    else find (i + 1)
  in
  find 0

let arm_lane t l e =
  if e.cancelled then invalid_arg "Engine.arm_lane: event was cancelled";
  if l.l_len = Array.length l.l_evs then lane_grow l;
  let i = (l.l_head + l.l_len) land (Array.length l.l_evs - 1) in
  Float.Array.unsafe_set l.l_times i (t.clk.now +. l.delay);
  l.l_seqs.(i) <- t.next_seq;
  l.l_evs.(i) <- e;
  l.l_len <- l.l_len + 1;
  count_armed t e

let schedule_at ?label t time action =
  check_time t "schedule_at" time;
  let e = event ?label action in
  reserve t;
  Float.Array.unsafe_set t.times t.size time;
  insert t e;
  e

let schedule_after ?label t delay action =
  check_delay "schedule_after" delay;
  let e = event ?label action in
  arm t e delay;
  e

let[@inline] arm_after t e delay =
  check_delay "arm_after" delay;
  if e.cancelled then invalid_arg "Engine.arm_after: event was cancelled";
  arm t e delay

let periodic ?(label = "event") t ~interval action =
  if not (interval > 0.0) then invalid_arg "Engine.periodic: non-positive or NaN interval";
  let l = lane t ~delay:interval in
  let rec e =
    {
      label;
      action =
        (fun () ->
          action ();
          if not e.cancelled then arm_lane t l e);
      queued = 0;
      cancelled = false;
    }
  in
  arm_lane t l e;
  e

(* An event that already fired has no queued occurrence left, so
   cancelling it changes no count. *)
let cancel t e =
  if not e.cancelled then begin
    e.cancelled <- true;
    if e.queued > 0 then begin
      t.live <- t.live - e.queued;
      Metrics.add m_cancelled e.queued
    end
  end

let pending t = t.live

(* --- Hooks ----------------------------------------------------------- *)

let note_activity t = t.clk.last_activity <- t.clk.now

let converged_at t =
  if Float.is_nan t.clk.last_activity then None else Some t.clk.last_activity

let hook t fn cadence ~at_horizon action =
  if not (cadence > 0.0) then
    invalid_arg (Printf.sprintf "Engine.%s: non-positive or NaN cadence" fn);
  Some { cadence; last = t.clk.now; at_horizon; action }

let set_monitor t ~cadence check =
  t.monitor <-
    hook t "set_monitor" cadence ~at_horizon:false (fun stopped -> check ~quiescent:stopped)

let clear_monitor t = t.monitor <- None

let set_sampler t ~every sample =
  t.sampler <- hook t "set_sampler" every ~at_horizon:true (fun _ -> sample t.clk.now)

let tick t = function
  | Some h when t.clk.now -. h.last >= h.cadence ->
      h.last <- t.clk.now;
      h.action false
  | Some _ | None -> ()

let stop t ~horizon =
  let at_stop = function
    | Some h when h.at_horizon || not horizon ->
        h.last <- t.clk.now;
        h.action true
    | Some _ | None -> ()
  in
  at_stop t.monitor;
  at_stop t.sampler

(* --- Dispatch -------------------------------------------------------- *)

(* The source of the earliest live entry, or [empty]; cancelled heads
   are dropped as they surface. *)
let rec live_head t =
  let b = earliest t in
  if b <> empty && (head_event t b).cancelled then begin
    pop t b;
    live_head t
  end
  else b

(* Fire the live event at the head of source [b]. *)
let fire t b =
  let e = head_event t b in
  t.clk.now <- head_time t b;
  pop t b;
  t.live <- t.live - 1;
  Metrics.incr m_fired;
  Metrics.set m_virtual t.clk.now;
  if Recorder.is_enabled () then Recorder.record ~time:t.clk.now ~label:e.label ();
  if Prof.is_enabled () then Prof.span e.label e.action else e.action ();
  tick t t.monitor;
  tick t t.sampler

(* The one dispatch loop: fire live events in (time, seq) order until
   none is left ([true]) or the earliest lies past [until] ([false]). *)
let rec drain t ~until =
  let b = live_head t in
  if b = empty then true
  else if head_time t b > until then false
  else begin
    fire t b;
    drain t ~until
  end

let step t =
  let b = live_head t in
  if b = empty then false
  else begin
    fire t b;
    true
  end

let run ?(until = infinity) t =
  let drained = drain t ~until in
  if not drained then begin
    (* The clock moves up to the horizon, never back. *)
    if until > t.clk.now then t.clk.now <- until;
    Metrics.set m_virtual t.clk.now
  end;
  stop t ~horizon:(not drained)

let run_until_idle t = run t
