(** The integrated MASC/BGMP architecture: the paper's full system.

    An {!t} wires together, over one simulation engine and topology:

    - a {b MASC} hierarchy (from the provider structure) that claims
      multicast address ranges per domain;
    - per-domain {b BGP} speakers: every acquired MASC range is injected
      as a group route and propagated subject to policy, building each
      domain's G-RIB;
    - a {b BGMP} fabric of border routers that resolves every group
      address through the local G-RIB to the root domain and builds the
      bidirectional shared tree, with MIGP components inside each
      domain;
    - one {b MAAS} per domain handing individual group addresses to
      initiators out of the domain's MASC ranges.

    The result is the paper's end-to-end flow: an initiator asks its
    MAAS for an address, the address falls in its domain's claimed
    range, the range's group route makes that domain the root, members
    anywhere join toward it, and senders anywhere reach all members. *)

type config = {
  masc : Masc_node.config;
  bgmp : Bgmp_fabric.config;
  seed : int;
  loss : float;
      (** per-message loss probability on every inter-domain channel, for
          all three protocols (deterministic: drawn from a seeded RNG
          private to the transport); 0 by default *)
}

val quick_config : config
(** Protocol timers scaled down (minutes instead of the deployment-scale
    48-hour collision wait) so examples and tests converge quickly. *)

type t

val create : ?config:config -> Topo.t -> t
(** Build the stack, with DVMRP inside every domain. *)

val reset : t -> seed:int -> unit
(** Rewind the whole stack in place to the state {!create} with the same
    config but [seed] returns: engine, transport, BGP, MASC (RNGs
    reseeded from [seed]), BGMP, MAAS and the invariant monitor.
    A run on a reset stack is the run on a fresh one, event for event:
    same outcome, same recording, same metrics.  The topology, the
    glue hooks and the registered predicates stay; a monitor or
    sampler installed on the engine is dropped. *)

val start : t -> unit
(** Start MASC (top-level domains advertise and children begin
    claiming).  Run the engine afterwards to let allocation settle. *)

val engine : t -> Engine.t

val topo : t -> Topo.t

val net : t -> Net.t
(** The one transport all three protocols send over: MASC claims, BGP
    updates and BGMP joins/prunes/data share its link state, loss
    process, and [net.*] accounting. *)

val run_for : t -> Time.t -> unit
(** Advance the simulation by the given duration. *)

val fail_link : t -> Domain.id -> Domain.id -> unit
(** [Net.fail_link] on the shared transport — one call takes the link
    down across the whole stack: the BGP sessions drop (withdrawals
    ripple, alternates get selected), in-flight messages of all three
    protocols are lost, and every active group's tree is rebuilt under
    the surviving routes.
    @raise Invalid_argument if no such topology link exists. *)

val restore_link : t -> Domain.id -> Domain.id -> unit
(** [Net.restore_link] on the shared transport: sessions re-form with
    full table exchange and the trees are rebuilt onto the (possibly
    shorter) restored paths.
    @raise Invalid_argument if no such topology link exists. *)

(** {1 Addresses and groups} *)

val request_address_retry :
  t -> Domain.id -> every:Time.t -> attempts:int -> Maas.allocation option
(** Ask the domain's MAAS for a group address, retried: while the MAAS
    has no usable MASC range yet, advance the simulation by [every] and
    ask again, making at most [attempts] requests in all.  [None] when
    the last one still fails.  With [attempts = 1] the simulation is not
    advanced. *)

val request_address_with_fallback : t -> Domain.id -> (Maas.allocation * Domain.id) option
(** The §4.1 burst path: try the domain's own MAAS; if its space is
    exhausted (a claim is pending), fall back to the provider's MAAS so
    the session can start immediately — "addresses could be obtained
    from the parent's address space.  If this is done, the root of the
    shared tree for these groups would simply be the parent's domain,
    which might be sub-optimal".  Returns the allocation and the domain
    it came from (the tree's root). *)

val release_address : t -> Domain.id -> Maas.allocation -> unit

val root_domain_of : t -> Ipv4.t -> Domain.id option
(** Where the shared tree for this address is rooted, per the G-RIB of
    the address's covering group route (from any vantage: the origin of
    the route). *)

(** {1 Invariants and convergence}

    Five named predicates over the live stack (registered at {!create}
    into an {!Invariant.t}, counted in the checking domain's
    current {!Metrics} registry):

    - ["masc-sibling-overlap"] — no two sibling domains hold
      overlapping {e acquired} MASC ranges (§4's collision resolution
      guarantees this once claims graduate);
    - ["bgmp-acyclic"] — every group's parent-pointer chain is
      cycle-free;
    - ["bgmp-tree-settled"] (quiescent only) — parent/child symmetry
      across peer links and member domains actually on the tree;
    - ["grib-nexthop"] (quiescent only) — each domain's upstream tree
      edge agrees with its G-RIB next hop toward the root;
    - ["grib-valley-free"] (quiescent only) — every G-RIB route's
      advertisement path crosses only links, climbing
      customer→provider, then at most one peer link, then descending
      provider→customer (§2's export policy, as the speakers enforce
      it).

    While the {!Recorder} is on, each violation found is also recorded
    as a ["violation"] narrative record carrying the trace id of the
    causal chain it implicates. *)

val check_invariants : ?quiescent:bool -> t -> Invariant.violation list
(** Run the predicates now ([quiescent] defaults to [true]: include the
    quiescent-only ones — only sound when the engine has drained). *)

val enable_invariant_checks : t -> unit
(** Install an engine monitor that re-checks every hour of simulated
    time (transient-tolerant predicates are skipped) and fully on
    quiescence. *)

val invariant_violations : t -> Invariant.violation list
(** Every violation seen so far, oldest first. *)

val invariants : t -> Invariant.t

val grib_valley_free : t -> Invariant.check
(** A fresh, ungated instance of the ["grib-valley-free"] predicate.
    Once built, a pass that finds every route valley-free allocates
    nothing. *)

val enable_sampling : ?every:Time.t -> t -> Timeseries.t -> unit
(** Register the stack's convergence-curve sources on the sink —
    ["engine.pending"], ["net.inflight.masc/bgp/bgmp"],
    ["grib.routes"] (G-RIB entries summed over domains),
    ["masc.claims_outstanding"], ["bgmp.tree_entries"] — and install an
    engine sampler that snapshots them every [every] of simulated time
    (default 1 min) plus once when the run stops.  Like the invariant
    monitor, the sampler piggybacks on event execution: it schedules
    nothing, so the run's event order and stdout are untouched. *)

val join : t -> host:Host_ref.t -> group:Ipv4.t -> unit

val leave : t -> host:Host_ref.t -> group:Ipv4.t -> unit

val send : t -> source:Host_ref.t -> group:Ipv4.t -> int
(** Returns the payload id; run the engine, then inspect
    {!deliveries}. *)

val deliveries : t -> payload:int -> (Host_ref.t * int) list

(** {1 Component access (for tests, examples, and experiments)} *)

val masc_node : t -> Domain.id -> Masc_node.t

val speaker : t -> Domain.id -> Speaker.t

val fabric : t -> Bgmp_fabric.t

val bgp : t -> Bgp_network.t

val masc_network : t -> Masc_network.t
