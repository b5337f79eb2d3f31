type config = { loss_rate : float; loss_seed : int; delay_override : Time.t option }

let default_config = { loss_rate = 0.0; loss_seed = 1998; delay_override = None }

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

type t = {
  engine : Engine.t;
  mutable cfg : config;
  (* The loss RNG is private to the net and is never drawn when
     [loss_rate] is zero, so loss-free runs match the pre-substrate
     stack draw-for-draw. *)
  loss_rng : Rng.t;
  by_protocol : (string, stats) Hashtbl.t;
  (* Directed link state.  [down] holds the directions currently down;
     [epoch] counts down-transitions per direction, so an in-flight
     message (which remembers the epoch at send time) is lost exactly
     when its direction failed before delivery — even if it was
     restored again in between. *)
  down : (int * int, unit) Hashtbl.t;
  epoch : (int * int, int) Hashtbl.t;
  mutable listeners : (int -> int -> up:bool -> unit) list;
}

type 'a channel = {
  net : t;
  stats : stats;
  src : int;
  dst : int;
  delay : Time.t;
  recv : 'a -> unit;
  mutable on_drop : ('a -> unit) option;
  queue : ('a * Span.t option * int) Queue.t;
  mutable last_delivery : Time.t;
  (* Recorder subject, built once per channel. *)
  subj : string;
}

let create ~engine ?(config = default_config) () =
  if config.loss_rate < 0.0 || config.loss_rate >= 1.0 then
    invalid_arg "Net.create: loss_rate outside [0, 1)";
  {
    engine;
    cfg = config;
    loss_rng = Rng.create config.loss_seed;
    by_protocol = Hashtbl.create 4;
    down = Hashtbl.create 16;
    epoch = Hashtbl.create 16;
    listeners = [];
  }

let engine t = t.engine

let set_loss_rate t rate =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Net.set_loss_rate: rate outside [0, 1)";
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

let channel t ~protocol ~src ~dst ~delay ~recv =
  let delay = match t.cfg.delay_override with Some d -> d | None -> delay in
  if delay < 0.0 then invalid_arg "Net.channel: negative delay";
  {
    net = t;
    stats = stats_for t protocol;
    src;
    dst;
    delay;
    recv;
    on_drop = None;
    queue = Queue.create ();
    last_delivery = Time.zero;
    subj = string_of_int src ^ "->" ^ string_of_int dst;
  }

let set_on_drop ch f = ch.on_drop <- Some f

let channel_delay ch = ch.delay

let direction_up t ~from_ ~to_ = not (Hashtbl.mem t.down (from_, to_))

let link_up t a b = direction_up t ~from_:a ~to_:b && direction_up t ~from_:b ~to_:a

let epoch_of t from_ to_ = try Hashtbl.find t.epoch (from_, to_) with Not_found -> 0

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
  let msg, span, sent_epoch = Queue.pop ch.queue in
  let st = ch.stats in
  (* The message left the wire whether it lands or was caught by a
     down-transition: the in-flight gauge drops on both paths. *)
  st.n_inflight <- st.n_inflight - 1;
  Metrics.set st.m_inflight (float_of_int st.n_inflight);
  if epoch_of ch.net ch.src ch.dst <> sent_epoch then drop ch ?span msg "in-flight"
  else begin
    st.n_delivered <- st.n_delivered + 1;
    Metrics.incr st.m_delivered;
    if Recorder.is_enabled () then
      Recorder.record ~time:(Engine.now ch.net.engine) ~label:st.recv_label ~subject:ch.subj ?span ();
    ch.recv msg
  end

let send ch ?span msg =
  let n = ch.net in
  let st = ch.stats in
  st.n_sent <- st.n_sent + 1;
  Metrics.incr st.m_sent;
  if not (direction_up n ~from_:ch.src ~to_:ch.dst) then drop ch ?span msg "link-down"
  else if n.cfg.loss_rate > 0.0 && Rng.float n.loss_rng 1.0 < n.cfg.loss_rate then
    drop ch ?span msg "loss"
  else begin
    Queue.push (msg, span, epoch_of n ch.src ch.dst) ch.queue;
    st.n_inflight <- st.n_inflight + 1;
    Metrics.set st.m_inflight (float_of_int st.n_inflight);
    (* The clamp keeps delivery FIFO even if a future channel variant
       gets a per-message delay; with a constant delay it is a no-op,
       so schedule times are exactly [now + delay]. *)
    let at = Float.max (Engine.now n.engine +. ch.delay) ch.last_delivery in
    ch.last_delivery <- at;
    ignore (Engine.schedule_at ~label:st.ev_label n.engine at (fun () -> deliver ch))
  end

(* Returns whether the direction changed state, so fail/restore notify
   listeners only on an actual transition. *)
let take_down t from_ to_ =
  if Hashtbl.mem t.down (from_, to_) then false
  else begin
    Hashtbl.replace t.down (from_, to_) ();
    Hashtbl.replace t.epoch (from_, to_) (1 + epoch_of t from_ to_);
    true
  end

let bring_up t from_ to_ =
  if Hashtbl.mem t.down (from_, to_) then begin
    Hashtbl.remove t.down (from_, to_);
    true
  end
  else false

let notify t a b ~up = List.iter (fun f -> f a b ~up) (List.rev t.listeners)

let fail_link t a b =
  let c1 = take_down t a b in
  let c2 = take_down t b a in
  if c1 || c2 then notify t a b ~up:false

let restore_link t a b =
  let c1 = bring_up t a b in
  let c2 = bring_up t b a in
  if c1 || c2 then notify t a b ~up:true

let block t ~from_ ~to_ = ignore (take_down t from_ to_)

let unblock t ~from_ ~to_ = ignore (bring_up t from_ to_)

let on_link_change t f = t.listeners <- f :: t.listeners

let sent t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_sent | None -> 0

let delivered t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_delivered | None -> 0

let dropped t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_dropped | None -> 0

let in_flight t ~protocol =
  match Hashtbl.find_opt t.by_protocol protocol with Some s -> s.n_inflight | None -> 0

let protocols t =
  Hashtbl.fold (fun p _ acc -> p :: acc) t.by_protocol [] |> List.sort String.compare
