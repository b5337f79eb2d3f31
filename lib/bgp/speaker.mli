(** A per-domain BGP speaker carrying {e group routes}.

    The paper models one logical routing decision per domain ("BGP's
    route selection algorithm ensures that one border router is chosen as
    the best exit router for each group route"), so we host one speaker
    per domain.  The speaker maintains per-peer Adj-RIB-In tables and a
    G-RIB of best routes; its decision process and export rules follow
    BGP, with two architecture-specific twists from §4.2/§4.3.2:

    - {b aggregation}: a speaker does not export a learned route whose
      prefix is subsumed by a prefix the speaker itself originates (the
      parent's covering group route makes the child's route redundant
      outside the parent), and
    - {b policy}: exports follow the provider/customer/peer
      (Gao–Rexford) rules by default — customer routes go to everyone,
      provider/peer routes only to customers — and can be further
      restricted per peer to express multicast policy. *)

type peer_relation =
  | To_customer  (** the peer is our customer *)
  | To_provider  (** the peer is our provider *)
  | To_peer

type t

val create : id:Domain.id -> t

val reset : t -> unit
(** Drop every route, in place: Adj-RIB-Ins, originated prefixes,
    G-RIB, export state and down sessions; version 0.  Peerings and the
    installed send, filter and G-RIB hooks stay. *)

val version : t -> int
(** A mutation counter over the G-RIB: it grows exactly when the best
    route for some prefix changes, under the same condition that fires
    the {!set_on_grib_change} listener.  A re-decision that keeps an
    equal route (same path, new lifetime or span) leaves it alone. *)

val add_peer : t -> Domain.id -> peer_relation -> unit
(** Declare a peering.  @raise Invalid_argument on duplicates. *)

val set_send : t -> (dst:Domain.id -> Update.t -> unit) -> unit
(** Install the transport used to reach peers (the network layer
    schedules delivery on the simulation engine). *)

val set_export_filter : t -> (dst:Domain.id -> Route.t -> bool) -> unit
(** An additional policy predicate ANDed with the default export rules;
    use it to express "do not advertise this group range to that peer". *)

val originate : ?lifetime_end:Time.t -> ?span:Span.t -> t -> Prefix.t -> unit
(** Inject a group route for a MASC-claimed range and advertise it to
    peers per policy.  Re-originating the same prefix is idempotent. *)

val withdraw_origin : t -> Prefix.t -> unit
(** Remove a self-originated route (MASC lifetime expiry or collision
    loss) and send withdrawals. *)

val set_on_grib_change : t -> (Prefix.t -> unit) -> unit
(** Install a listener fired whenever the best route for a prefix
    changes (installed, replaced, or removed) — the signal a BGMP
    component needs to repair shared trees whose path to the root moved
    (route withdrawals, policy changes, MASC renumbering). *)

val peer_down : t -> Domain.id -> unit
(** The peering session dropped: flush every route learned from that
    peer and stop exporting to it — no updates are sent (or recorded as
    sent) to the peer until {!peer_up} — as real BGP does when the TCP
    session dies.  @raise Invalid_argument on an unknown peer. *)

val peer_up : t -> Domain.id -> unit
(** The session is back: re-advertise the full exportable table to the
    peer (BGP's initial table exchange). *)

val receive : t -> from_:Domain.id -> Update.t -> unit
(** Process an update from a peer: store in Adj-RIB-In, re-run the
    decision process, propagate any change.  Routes containing our own
    id in their path are rejected (loop prevention).
    @raise Invalid_argument if [from_] is not a declared peer. *)

val lookup : t -> Ipv4.t -> Route.t option
(** G-RIB longest-prefix match: the route toward the root domain of the
    given group address. *)

val best_routes : t -> (Prefix.t * Route.t) list
(** The G-RIB contents, in prefix order. *)

val grib_size : t -> int

val iter_routes : t -> (Route.t -> unit) -> unit
(** The G-RIB's routes in prefix order, without building a list: the
    walk allocates nothing of its own. *)

