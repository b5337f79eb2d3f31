type config = { loss_rate : float; loss_seed : int }

let default_config = { loss_rate = 0.0; loss_seed = 1998 }

(* Per-protocol accounting: plain ints for per-net queries plus the
   process-wide metrics counters. *)
type stats = {
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable n_inflight : int;
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped : Metrics.counter;
  (* Queue depth across all the protocol's channels: up on enqueue,
     down when the message leaves the wire — delivered or epoch-dropped
     in flight.  At-source drops never enqueue, so they never touch it. *)
  m_inflight : Metrics.gauge;
  (* Profiler bucket for this protocol's delivery events, built once so
     [send] does no string concatenation per message. *)
  ev_label : string;
  (* Flight-recorder labels for landed and dropped messages, also
     prebuilt. *)
  recv_label : string;
  drop_label : string;
}

(* The state of an endpoint pair.  [epoch] counts down-transitions, so
   an in-flight message (which remembers the epoch at send time) is lost
   exactly when its link failed before delivery — even if it was
   restored again in between.  Every channel on the pair, in either
   direction and whatever its protocol, shares the one cell, so send and
   deliver read link state without a lookup. *)
type link = { mutable down : bool; mutable epoch : int }

type t = {
  engine : Engine.t;
  mutable cfg : config;
  (* The loss RNG is private to the net and is never drawn when
     [loss_rate] is zero, so loss-free runs match the pre-substrate
     stack draw-for-draw. *)
  loss_rng : Rng.t;
  by_protocol : (string, stats) Hashtbl.t;
  (* Link cells keyed by the unordered pair (lower endpoint first),
     created on first touch. *)
  links : (int * int, link) Hashtbl.t;
  mutable listeners : (int -> int -> up:bool -> unit) list;
  (* Every channel's [empty], for [reset]. *)
  mutable empties : (unit -> unit) list;
}

(* The messages on the wire, oldest first, live in a growable ring of
   parallel arrays: message, span and the link epoch at send time.  The
   capacity is a power of two, and a send allocates only when the ring
   grows.  Messages are stored as [Obj.t] so that a delivered slot can
   be cleared to an immediate and keep nothing alive without a
   placeholder message; an array built from an immediate is never a
   flat float array, so the stores and loads are sound for any ['a]. *)
type 'a channel = {
  net : t;
  stats : stats;
  link : link;
  recv : 'a -> unit;
  mutable on_drop : ('a -> unit) option;
  mutable q_msg : Obj.t array;
  mutable q_span : Span.t option array;
  mutable q_epoch : int array;
  mutable q_head : int;  (** slot of the oldest message *)
  mutable q_len : int;
  (* Delivers the head of the queue; armed once per message sent,
     through the engine's lane for the channel's delay. *)
  mutable arrival : Engine.handle;
  lane : Engine.lane;
  (* Recorder subject, built once per channel. *)
  subj : string;
}

let vacant = Obj.repr 0

(* Double the ring (one slot at first), unrolling the queue to start at
   slot 0. *)
let grow ch =
  let cap = Array.length ch.q_msg in
  let cap' = max 1 (2 * cap) in
  let msg = Array.make cap' vacant and span = Array.make cap' None in
  let epoch = Array.make cap' 0 in
  for k = 0 to ch.q_len - 1 do
    let i = (ch.q_head + k) land (cap - 1) in
    msg.(k) <- ch.q_msg.(i);
    span.(k) <- ch.q_span.(i);
    epoch.(k) <- ch.q_epoch.(i)
  done;
  ch.q_msg <- msg;
  ch.q_span <- span;
  ch.q_epoch <- epoch;
  ch.q_head <- 0

let check_rate fn rate =
  if not (rate >= 0.0 && rate < 1.0) then
    invalid_arg (Printf.sprintf "Net.%s: loss_rate outside [0, 1)" fn)

(* Reading a handle registers its instrument in the current registry,
   as creating it did. *)
let register_stats st =
  ignore (Metrics.count st.m_sent);
  ignore (Metrics.count st.m_delivered);
  ignore (Metrics.count st.m_dropped);
  ignore (Metrics.value st.m_inflight)

(* Link cells, stats and channels stay: channels hold their cell and
   stats, and a cell that is up at epoch 0 behaves like a fresh one. *)
let reset t ~loss_rate ~loss_seed =
  check_rate "reset" loss_rate;
  t.cfg <- { loss_rate; loss_seed };
  Rng.reseed t.loss_rng loss_seed;
  Hashtbl.iter
    (fun _ st ->
      st.n_sent <- 0;
      st.n_delivered <- 0;
      st.n_dropped <- 0;
      st.n_inflight <- 0;
      register_stats st)
    t.by_protocol;
  Hashtbl.iter
    (fun _ l ->
      l.down <- false;
      l.epoch <- 0)
    t.links;
  List.iter (fun empty -> empty ()) t.empties

let create ~engine ?(config = default_config) () =
  check_rate "create" config.loss_rate;
  let t =
    {
      engine;
      cfg = config;
      loss_rng = Rng.create config.loss_seed;
      by_protocol = Hashtbl.create 4;
      links = Hashtbl.create 16;
      listeners = [];
      empties = [];
    }
  in
  reset t ~loss_rate:config.loss_rate ~loss_seed:config.loss_seed;
  t

let set_loss_rate t rate =
  check_rate "set_loss_rate" rate;
  t.cfg <- { t.cfg with loss_rate = rate }

let stats_for t protocol =
  match Hashtbl.find_opt t.by_protocol protocol with
  | Some s -> s
  | None ->
      let s =
        {
          n_sent = 0;
          n_delivered = 0;
          n_dropped = 0;
          n_inflight = 0;
          m_sent = Metrics.counter ("net.sent." ^ protocol);
          m_delivered = Metrics.counter ("net.delivered." ^ protocol);
          m_dropped = Metrics.counter ("net.dropped." ^ protocol);
          m_inflight = Metrics.gauge ("net.inflight." ^ protocol);
          ev_label = "net.deliver." ^ protocol;
          recv_label = "net.recv." ^ protocol;
          drop_label = "net.drop." ^ protocol;
        }
      in
      Hashtbl.add t.by_protocol protocol s;
      s

let link t a b =
  let key = if a <= b then (a, b) else (b, a) in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l = { down = false; epoch = 0 } in
      Hashtbl.add t.links key l;
      l

let drop ch ?span msg reason =
  let st = ch.stats in
  st.n_dropped <- st.n_dropped + 1;
  Metrics.incr st.m_dropped;
  if Recorder.is_enabled () then
    Recorder.record
      ~time:(Engine.now ch.net.engine)
      ~label:st.drop_label ~subject:ch.subj ?span ~detail:reason ();
  match ch.on_drop with Some f -> f msg | None -> ()

let deliver ch =
  assert (ch.q_len > 0);
  let i = ch.q_head in
  let msg = Obj.obj ch.q_msg.(i) and span = ch.q_span.(i) and sent_epoch = ch.q_epoch.(i) in
  ch.q_msg.(i) <- vacant;
  ch.q_span.(i) <- None;
  ch.q_head <- (i + 1) land (Array.length ch.q_msg - 1);
  ch.q_len <- ch.q_len - 1;
  let st = ch.stats in
  (* The message left the wire whether it lands or was caught by a
     down-transition: the in-flight gauge drops on both paths. *)
  st.n_inflight <- st.n_inflight - 1;
  Metrics.set_int st.m_inflight st.n_inflight;
  if ch.link.epoch <> sent_epoch then drop ch ?span msg "in-flight"
  else begin
    st.n_delivered <- st.n_delivered + 1;
    Metrics.incr st.m_delivered;
    if Recorder.is_enabled () then
      Recorder.record ~time:(Engine.now ch.net.engine) ~label:st.recv_label ~subject:ch.subj
        ?span ();
    ch.recv msg
  end

(* Drop every message on the wire; the ring and the arrival event stay
   (the engine's reset zeroes the event's queued count). *)
let empty ch =
  for k = 0 to ch.q_len - 1 do
    let i = (ch.q_head + k) land (Array.length ch.q_msg - 1) in
    ch.q_msg.(i) <- vacant;
    ch.q_span.(i) <- None
  done;
  ch.q_head <- 0;
  ch.q_len <- 0

(* Placeholder until [channel] builds the channel's own arrival event;
   never armed. *)
let unbuilt = Engine.event ignore

let channel t ~protocol ~src ~dst ~delay ~recv =
  if not (delay >= 0.0) then invalid_arg "Net.channel: negative or NaN delay";
  let stats = stats_for t protocol in
  let ch =
    {
      net = t;
      stats;
      link = link t src dst;
      recv;
      on_drop = None;
      q_msg = [||];
      q_span = [||];
      q_epoch = [||];
      q_head = 0;
      q_len = 0;
      arrival = unbuilt;
      lane = Engine.lane t.engine ~delay;
      subj = string_of_int src ^ "->" ^ string_of_int dst;
    }
  in
  ch.arrival <- Engine.event ~label:stats.ev_label (fun () -> deliver ch);
  t.empties <- (fun () -> empty ch) :: t.empties;
  ch

let set_on_drop ch f = ch.on_drop <- Some f

(* Every delivery of a channel is [delay] after its send and the clock
   never runs backwards, so arrivals stay FIFO and the queue head is
   always the message whose arrival fires. *)
let send ch ?span msg =
  let n = ch.net in
  let st = ch.stats in
  st.n_sent <- st.n_sent + 1;
  Metrics.incr st.m_sent;
  if ch.link.down then drop ch ?span msg "link-down"
  else if n.cfg.loss_rate > 0.0 && Rng.float n.loss_rng 1.0 < n.cfg.loss_rate then
    drop ch ?span msg "loss"
  else begin
    if ch.q_len = Array.length ch.q_msg then grow ch;
    let i = (ch.q_head + ch.q_len) land (Array.length ch.q_msg - 1) in
    ch.q_msg.(i) <- Obj.repr msg;
    ch.q_span.(i) <- span;
    ch.q_epoch.(i) <- ch.link.epoch;
    ch.q_len <- ch.q_len + 1;
    st.n_inflight <- st.n_inflight + 1;
    Metrics.set_int st.m_inflight st.n_inflight;
    Engine.arm_lane n.engine ch.lane ch.arrival
  end

(* Listeners hear only actual transitions. *)
let notify t a b ~up = List.iter (fun f -> f a b ~up) (List.rev t.listeners)

let fail_link t a b =
  let l = link t a b in
  if not l.down then begin
    l.down <- true;
    l.epoch <- l.epoch + 1;
    notify t a b ~up:false
  end

let restore_link t a b =
  let l = link t a b in
  if l.down then begin
    l.down <- false;
    notify t a b ~up:true
  end

let on_link_change t f = t.listeners <- f :: t.listeners

let sent t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_sent | None -> 0

let delivered t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_delivered | None -> 0

let dropped t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_dropped | None -> 0

let in_flight t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_inflight | None -> 0
