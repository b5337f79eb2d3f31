(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events: a binary heap plus one FIFO {!lane} per fixed delay.
    Protocol entities (MASC nodes, BGP speakers, BGMP routers, MIGP
    components) are plain OCaml values that schedule closures; events
    at equal timestamps fire in scheduling order, so runs are fully
    deterministic.  One dispatch loop fires them, with one limit: a
    horizon ({!run}).  One watermark records when durable state last
    changed ({!converged_at}). *)

type t

type handle
(** A scheduled event.  The same record can be queued more than once
    (see {!event}); cancelling it removes every queued occurrence. *)

val create : unit -> t

val reset : t -> unit
(** Rewind to the state {!create} returns: clock, seq, queue, watermark,
    monitor and sampler.  Queued occurrences are dropped and their
    events' queue counts zeroed; the queue's arrays and the {!lane}s
    stay (grown, empty), so an engine reused across runs allocates them
    once.  A run after [reset] fires exactly what the same run on a
    fresh engine fires. *)

val now : t -> Time.t

val schedule_at : ?label:string -> t -> Time.t -> (unit -> unit) -> handle
(** Schedule a closure at an absolute time.  Scheduling in the past or
    at NaN raises [Invalid_argument].  [label] names the event kind for
    the profiler: when {!Prof} is enabled, the action fires inside
    [Prof.span label], bucketing dispatch time per kind (default
    ["event"]). *)

val schedule_after : ?label:string -> t -> Time.t -> (unit -> unit) -> handle
(** Schedule a closure [delay] after the current time.
    @raise Invalid_argument if [delay] is negative or NaN. *)

val periodic : ?label:string -> t -> interval:Time.t -> (unit -> unit) -> handle
(** Run the closure every [interval], starting one interval from now,
    until cancelled.  The one event record is re-armed after each
    firing, through the {!lane} for [interval].
    @raise Invalid_argument if [interval <= 0] or NaN. *)

val event : ?label:string -> (unit -> unit) -> handle
(** An unarmed, reusable event: {!arm_after} queues one more occurrence
    of it per call, each firing [action] once.  A transport lane builds
    one and arms it per message, so the per-message path allocates no
    event. *)

val arm_after : t -> handle -> Time.t -> unit
(** Queue one occurrence of the event [delay] after the current time,
    ordered like a fresh {!schedule_after}.
    @raise Invalid_argument if [delay] is negative or NaN, or the event
    was cancelled. *)

(** {1 Fixed-delay lanes}

    Most events are armed at [now + a constant]: a channel's link delay,
    a periodic interval, a fixed lifetime.  The occurrences armed with
    one delay form a FIFO lane beside the heap: each takes the next seq
    at arm time, and the clock never runs backwards, so a lane is always
    sorted by (time, seq).  Dispatch fires the earliest of the heap top
    and the lane heads, so arming through a lane fires in exactly the
    order {!arm_after} with the same delay would, while arming and
    firing cost O(1) whatever the queue depth.  {!cancel}, {!pending}
    and the [sim.*] metrics count lane occurrences like heap ones. *)

type lane
(** The FIFO of occurrences armed with one exact delay. *)

val lane : t -> delay:Time.t -> lane
(** The engine's one lane for [delay] (compared with [=]), made on
    first use.  Its ring takes one slot at the first arm and doubles
    when full.  Use a lane only where the caller's
    delay is a constant of the run: a drawn delay belongs in
    {!arm_after}.  @raise Invalid_argument if [delay] is negative or
    NaN. *)

val arm_lane : t -> lane -> handle -> unit
(** Queue one occurrence of the event at [now + delay] of the lane,
    ordered like {!arm_after} with that delay.  Allocates nothing once
    the lane's ring has grown to its peak length.  The lane must belong
    to [t].  @raise Invalid_argument if the event was cancelled. *)

val cancel : t -> handle -> unit
(** Withdraw every queued occurrence of the event; a periodic event
    stops for good.  Cancelling an already-fired or already-cancelled
    event is a no-op.  The handle must belong to [t]. *)

val pending : t -> int
(** Number of live (scheduled, not yet fired, not cancelled) events.
    Cancelled events leave this count immediately, even though they
    only drain from the internal queue lazily. *)

val step : t -> bool
(** Fire the earliest live event; [false] when none is queued.  Every
    way of running fires events through one dispatch point: when the
    flight recorder ({!Recorder}) is enabled, each fired event appends
    one record [(time, label)] before its action runs — one branch
    when disabled, like the profiler.  [step] runs no stop hook. *)

val run : ?until:Time.t -> t -> unit
(** Fire events until no live event is left (a drained stop), or until
    the next lies strictly after [until] (a horizon stop: it stays
    queued and the clock is advanced to [until]).  Left to themselves,
    repeated {!step}s, one [run] and [run] in [~until] slices fire the
    same events in the same order. *)

val run_until_idle : t -> unit
(** [run] with no horizon. *)

(** {1 Convergence watermark}

    Protocol code calls {!note_activity} whenever it changes durable
    state (a RIB entry, a claim, tree state — not mere message
    forwarding).  The time of the last note is when the run converged:
    everything after it was churn-free. *)

val note_activity : t -> unit
(** Record a durable state change at the current clock. *)

val converged_at : t -> Time.t option
(** The time of the last {!note_activity}; [None] if nothing ever
    reported activity. *)

(** {1 Monitor and sampler hooks}

    Both hooks piggyback on event execution rather than scheduling
    events of their own, so neither keeps an otherwise-idle run alive.
    Each fires at most once per its cadence of virtual time (after the
    event that crossed the boundary) and once more when a run stops.
    The monitor (invariant checks) gets [~quiescent:false] at a cadence
    firing and [~quiescent:true] at a drained stop, and skips horizon
    stops.  The sampler (telemetry) gets the current time and
    fires at every stop, so a series always carries a final point.
    Setting either replaces the previous one; a cadence [<= 0] or NaN
    raises [Invalid_argument]. *)

val set_monitor : t -> cadence:Time.t -> (quiescent:bool -> unit) -> unit

val clear_monitor : t -> unit

val set_sampler : t -> every:Time.t -> (Time.t -> unit) -> unit
