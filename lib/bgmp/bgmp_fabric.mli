(** The BGMP fabric: every domain's border routers, their peering
    sessions, and the MIGP-mediated interior, assembled over the
    simulation engine.

    One border router exists per end of every inter-domain link (as in
    the paper's figures: A1–A4 are A's routers on its four links).  The
    fabric executes the {!Bgmp_router} state machines' actions: peer
    messages travel with the link's delay; MIGP-side actions are routed
    to the right border router of the domain; data handed to a domain's
    interior is distributed per the domain's MIGP style (flooding or
    explicit-state), with RPF-encapsulation and automatic source-specific
    branch initiation for strict-RPF MIGPs (§5.3).

    Routing information is injected: [route_to_root] answers from the
    G-RIB (in the integrated stack, from the BGP speakers; in tests,
    from a static table), and source routing uses unicast shortest
    paths over the topology (the M-RIB in the congruent-topology
    case). *)

type root_route =
  | Root_here
  | Via of Domain.id  (** next-hop domain toward the root *)
  | Unroutable

type config = {
  branching : bool;
      (** build source-specific branches automatically when a strict-RPF
          MIGP would otherwise keep encapsulating (§5.3) *)
}

val default_config : config

type t

val create :
  engine:Engine.t ->
  topo:Topo.t ->
  ?net:Net.t ->
  ?config:config ->
  ?migp_style:(Domain.id -> Migp.style) ->
  ?span_of_group:(Domain.id -> Ipv4.t -> Span.t option) ->
  route_to_root:(Domain.id -> Ipv4.t -> root_route) ->
  unit ->
  t
(** Peer messages travel over {!Net} channels (one per border router,
    toward its external peer) with the link's delay; [net] is the
    transport to use — pass the internet-wide one to share link state
    with BGP and MASC, or a [Net.t] whose config overrides delays or
    injects loss (the old [link_delay_override] lives in [Net.config]
    now).  By default the fabric gets a private [Net.t] on the same
    engine.  [migp_style] defaults to DVMRP everywhere.  While the
    {!Recorder} is on, joins append narrative records ("join" at the
    originating domain, "join-hop" per tree hop).  [span_of_group]
    supplies the causal span of the G-RIB route a domain uses for a
    group (the integrated stack wires it to the speakers' routes), so
    join chains continue the MASC claim's trace id; without it, chains
    start fresh under
    ["group:<addr>"]. *)

(** {1 Host operations} *)

val host_join : t -> host:Host_ref.t -> group:Ipv4.t -> unit

val host_leave : t -> host:Host_ref.t -> group:Ipv4.t -> unit

val send : ?span:Span.t -> t -> source:Host_ref.t -> group:Ipv4.t -> int
(** Send one packet from the host to the group; returns the fresh
    payload id.  Senders need not be members (IP service model, §3).
    Run the engine to let it propagate.  [?span] is the packet's causal
    span: every inter-domain copy travels under it, so a transport drop
    is blamed on the packet's chain in the recording.  Only pass one
    for recorded packets — the span is retained until
    {!forget_payload}. *)

val next_payload_id : t -> int
(** The payload id the next {!send} will use.  Measurement layers
    register their per-probe accounting {e before} sending: intra-domain
    copies deliver synchronously inside [send], so registering after it
    returns would miss them. *)

(** {1 Delivery observation} *)

val deliveries : t -> payload:int -> (Host_ref.t * int) list
(** Hosts that received the payload, in arrival order, with the
    inter-domain hop count of the path each copy took. *)

val set_on_delivery :
  t ->
  (group:Ipv4.t -> source:Host_ref.t -> payload:int -> host:Host_ref.t -> hops:int -> unit)
  option ->
  unit
(** Install (or clear) a hook called once per {e first} copy delivered
    to a host — duplicates only bump {!duplicate_deliveries}.  The hook
    runs at delivery time, inside the engine event, so
    [Engine.now] is the delivery time.  The measurement layer
    ([Beacon]) folds these into its delivery matrix. *)

val forget_payload : t -> payload:int -> unit
(** Drop the fabric's per-payload bookkeeping (delivery list, dedup
    entries, retained span) for a payload whose accounting is finished.
    Long soaks call this after harvesting each probe, keeping fabric
    memory bounded by the in-flight window rather than the whole run.
    A straggler copy arriving after the forget would be re-recorded as
    a fresh delivery, so only forget payloads past their maximum path
    delay. *)

val group_span : t -> Domain.id -> Ipv4.t -> Span.t
(** A fresh span for a packet a host in the domain is about to send to
    the group: a child of the covering G-RIB route's span when
    [span_of_group] knows one (so probes join the route's causal
    chain), else a fresh root under ["group:<addr>"]. *)

val duplicate_deliveries : t -> int
(** Copies delivered to a host that had already received that payload —
    0 in a correct run. *)

val net : t -> Net.t
(** The transport peer messages travel over. *)

val fail_link : t -> Domain.id -> Domain.id -> unit
(** [Net.fail_link] on the transport: messages over the link (joins,
    prunes, data — and, on a shared transport, every other protocol's
    traffic) are lost until {!restore_link}, including ones already in
    flight.  Combine with {!rebuild_group} (or use [Internet.fail_link],
    which orchestrates BGP and BGMP together) to move trees off the dead
    link. *)

val restore_link : t -> Domain.id -> Domain.id -> unit

(** {1 Route-change repair} *)

val active_groups : t -> Ipv4.t list
(** Groups with forwarding state or local members anywhere, ascending. *)

val rebuild_group : t -> group:Ipv4.t -> unit
(** Rebuild the group's distribution tree under the {e current} routing
    information: every router's (star,G)/(S,G) state is dropped and
    each member domain re-issues its join toward the (possibly new)
    root path.  Call after the G-RIB changes for the group's covering
    route — withdawals, policy changes, or MASC renumbering move the
    path to the root, and the old tree is stale (real BGMP reconverges
    the same way: new joins follow the new routes while the old state
    times out). *)

(** {1 Introspection} *)

val migp_of : t -> Domain.id -> Migp.t

val routers_of : t -> Domain.id -> Bgmp_router.t list

val router : t -> int -> Bgmp_router.t
(** The border router with this id (a {!Bgmp_router.Peer} target). *)

val router_toward : t -> Domain.id -> Domain.id -> Bgmp_router.t option
(** [router_toward t d e]: d's border router on the d–e link. *)

val tree_domains : t -> group:Ipv4.t -> Domain.id list
(** Domains with at least one on-tree border router, ascending. *)

val control_messages : t -> int
(** Join/prune messages sent between peers so far. *)

val data_messages : t -> int
(** Data packets sent over inter-domain links so far. *)

val total_entries : t -> int
(** Forwarding entries across all border routers. *)

val tree_violations : t -> quiescent:bool -> (string * string option) list
(** Live invariant sweep over every active group, as
    [(detail, trace_id)] pairs suitable for {!Invariant.register}
    predicates: parent-pointer acyclicity (always), and — only when
    [quiescent], since in-flight joins legitimately violate them —
    parent/child symmetry across peer links and members-implies-tree
    membership. *)
