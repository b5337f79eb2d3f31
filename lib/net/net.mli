(** The link-transport substrate under MASC, BGP and BGMP.

    Every inter-domain message in the stack crosses a directed
    {!channel}: a FIFO, fixed-delay lane between two endpoints (domain
    ids), owned by a {!t} that holds the {e single source of truth} for
    link state.  The three protocol layers used to model links three
    different ways (MASC kept its own partition set, BGP dropped
    in-flight updates on failure, BGMP carried a private delay table);
    routing them all through one substrate gives every protocol the same
    failure semantics and gives fault injection one place to act:

    - {b delay} — each channel delivers [delay] after the send;
      delivery order per channel is FIFO, and equal-time deliveries
      across channels fire in send order (the engine's queue breaks ties
      by scheduling sequence), so runs are fully deterministic;
    - {b up/down state} — {!fail_link} takes an endpoint pair down,
      both directions at once, as a TCP session is up or down:
      subsequent sends are dropped at the source and messages already
      in flight are lost (they were bits on the dead wire);
    - {b loss} — a seeded, deterministic per-message loss probability
      ([loss_rate]); the RNG is private to the net and is never drawn
      when the rate is zero, so loss-free runs are bit-identical to the
      pre-substrate stack;
    - {b observability} — [net.sent/delivered/dropped.<protocol>]
      metrics and per-net counters.  When the flight recorder is
      enabled, every landed message appends a [net.recv.<protocol>]
      record and every lost one a [net.drop.<protocol>] record (subject
      ["src->dst"], detail the reason: [loss], [link-down] or
      [in-flight]), both carrying the message's causal span.

    Endpoints are plain ints.  Channels need not follow topology links:
    MASC's overlay (parent/child/top-sibling) pairs share the same state
    table, so partitioning a non-adjacent pair is expressed the same way
    as failing a physical link. *)

type config = {
  loss_rate : float;  (** per-message drop probability in [0, 1) *)
  loss_seed : int;  (** seed of the private loss RNG *)
}

val default_config : config
(** No loss, seed 1998. *)

type t

val create : engine:Engine.t -> ?config:config -> unit -> t
(** @raise Invalid_argument if [config.loss_rate] is outside [0, 1) or
    NaN. *)

val reset : t -> loss_rate:float -> loss_seed:int -> unit
(** Rewind to the state {!create} returns with this [loss_rate] and
    [loss_seed], in place: every message on the wire is dropped, every
    link is up at epoch 0, the per-protocol counts read 0 and
    the loss RNG is reseeded.  Channels, link cells and listeners stay;
    each protocol's [net.*] instruments are registered in the current
    {!Metrics} registry again, as creating its first channel did.  The
    engine must be reset with it ({!Engine.reset}), so no delivery of a
    dropped message is still queued.
    @raise Invalid_argument if [loss_rate] is outside [0, 1) or NaN. *)

val set_loss_rate : t -> float -> unit
(** Change the per-message loss probability for {e subsequent} sends.
    The loss RNG's draw sequence is unchanged for past sends (it is
    only ever drawn while the rate is positive), so a run that builds
    state losslessly and then turns loss on for a measurement phase
    stays deterministic.  @raise Invalid_argument outside [0, 1) or
    NaN. *)

(** {1 Channels} *)

type 'a channel
(** A directed lane carrying ['a] messages from [src] to [dst]. *)

val channel :
  t -> protocol:string -> src:int -> dst:int -> delay:Time.t -> recv:('a -> unit) -> 'a channel
(** A fresh channel; [recv] runs at delivery time, [delay] later than
    the send (unless overridden net-wide).  [protocol] labels the
    accounting ("masc", "bgp", "bgmp").
    @raise Invalid_argument if the effective delay is negative or NaN. *)

val set_on_drop : 'a channel -> ('a -> unit) -> unit
(** Install a drop observer: it runs — with the lost message — whenever
    this channel drops, at the source (link down or loss draw) and in
    flight (epoch drop), after the net-wide accounting.  Layers use it
    to classify their own losses (e.g. BGMP data vs control). *)

val send : 'a channel -> ?span:Span.t -> 'a -> unit
(** Queue a message.  It is dropped — at the source — if the
    [src]–[dst] link is down or the loss draw fires, and — in flight —
    if the link goes down before the delivery time.  [span] attributes a
    drop to its causal chain in the recording. *)

(** {1 Link state}

    State is per {e unordered} endpoint pair: one cell, created on the
    pair's first touch (a channel or a failure) and shared by every
    channel between the two endpoints, in either direction and whatever
    its protocol.  The pair needs no prior channel — failing a pair that
    never communicates only changes its cell, and a channel created
    later sees the state. *)

val fail_link : t -> int -> int -> unit
(** Take the link down: future sends either way drop at the source,
    in-flight messages are lost, and {!on_link_change} listeners fire
    with [up:false].  Idempotent. *)

val restore_link : t -> int -> int -> unit
(** Bring the link back up and notify listeners with [up:true].
    Messages lost while the link was down stay lost.  Idempotent. *)

val on_link_change : t -> (int -> int -> up:bool -> unit) -> unit
(** Subscribe to {!fail_link}/{!restore_link} transitions (BGP uses this
    to drop and re-form peering sessions).  Listeners run after the
    state change, in subscription order. *)

(** {1 Accounting}

    Per-net, per-protocol message counters (the same numbers are
    published as [net.<counter>.<protocol>] metrics, which aggregate
    across nets). *)

val sent : t -> protocol:string -> int
(** Send attempts, including ones dropped at the source. *)

val delivered : t -> protocol:string -> int

val dropped : t -> protocol:string -> int
(** Loss + dropped-at-source + lost-in-flight. *)

val in_flight : t -> protocol:string -> int
(** Messages currently on the wire across the protocol's channels
    (sent, not yet delivered or dropped).  Mirrored live in the
    [net.inflight.<protocol>] gauge: incremented on enqueue,
    decremented on delivery {e and} on an in-flight epoch drop; a drop
    at the source never enqueues, so it never moves the gauge. *)
