(** A dbeacon-style beacon fleet over a {!Bgmp_fabric}.

    Beacons are hosts that {e listen} on groups (joining through the
    fabric, so real BGMP trees carry the traffic) and {e source}
    seq-numbered probes to groups on a fixed period.  Every probe send
    records, per receiver the group had at send time, one expected
    delivery in the fleet's {!Beacon_matrix.t}; the fabric's delivery
    hook folds arriving copies back in (one-way latency in sim time,
    inter-domain hop count, stretch vs the unicast BFS distance), and a
    harvest event [harvest_after] after each send writes off the copies
    that never arrived and releases the fabric's per-payload
    bookkeeping, so long soaks run in bounded memory.

    Scheduling is deterministic: sources probe in registration order,
    staggered by [stagger], each sending [probes_per_source] probes
    [period] apart.  While the {!Recorder} is on, each probe send
    records a ["probe"] narrative record and travels under a span
    descending from the group's covering join/G-RIB span
    ({!Bgmp_fabric.group_span}), so a lost probe's [net.drop.bgmp]
    record — and the ["probe-lost"] harvest record — are attributable
    to the tree that should have carried it. *)

type config = {
  period : Time.t;  (** inter-probe interval per source *)
  probes_per_source : int;
  harvest_after : Time.t;
      (** accounting delay per probe; must exceed the maximum one-way
          path delay or stragglers count as lost *)
  stagger : Time.t;  (** offset between successive sources' first probes *)
}

type t

val create :
  engine:Engine.t ->
  topo:Topo.t ->
  fabric:Bgmp_fabric.t ->
  config:config ->
  t
(** Installs the fleet as the fabric's delivery hook (replacing any
    previous hook). *)

val add_listener : t -> group:Ipv4.t -> host:Host_ref.t -> unit
(** Join the host to the group (through the fabric) and expect probe
    deliveries for it from now on.  Lost probes are reported per
    receiver in listener registration order.
    @raise Invalid_argument if the host is already a member of the group
    (the fleet is then unchanged). *)

val add_source : t -> group:Ipv4.t -> host:Host_ref.t -> unit
(** The host will source probes to the group.  Sources need not be
    listeners (IP service model). *)

val start : t -> at:Time.t -> unit
(** Schedule every probe send and harvest.  Call once, after
    registering sources and listeners and (typically) after letting
    the trees converge. *)

val last_harvest_at : t -> Time.t
(** When the final probe's accounting closes (meaningful after
    {!start}); run the engine at least this far. *)

val matrix : t -> Beacon_matrix.t

val probes_sent : t -> int

val deliveries : t -> int

val lost : t -> int
(** Expected deliveries written off by harvests so far. *)

val register_series : t -> Timeseries.t -> unit
(** Register [beacon.probes_outstanding], [beacon.probes_sent],
    [beacon.deliveries] and [beacon.lost] sources — drive them with the
    engine sampler for the in-flight / cumulative-loss telemetry
    series. *)
