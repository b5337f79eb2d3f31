(** A running MASC hierarchy: one node per participating domain, wired
    over the simulation engine.

    The hierarchy mirrors the provider/customer structure of the
    topology (§4: "a domain that is a customer of other domains will
    choose one or more of those provider domains to be its MASC
    parent"); domains with no provider are top level and exchange claims
    directly with each other.  Messages travel over {!Net} channels
    (one per directed overlay edge, 50 ms delay), so the paper's
    motivating failure case — two domains claiming the same range while
    unable to hear each other — is injected through the shared
    transport's link state. *)

type t

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  ?config:Masc_node.config ->
  ?net:Net.t ->
  parent_of:(Domain.id -> Domain.id option) ->
  ids:Domain.id list ->
  unit ->
  t
(** Build nodes for [ids]; [parent_of] gives each domain's MASC parent
    ([None] = top level).  Top-level nodes mesh with each other and are
    bootstrapped on all of 224/4.
    [net] is the transport to send over — pass the internet-wide one to
    share link state with BGP and BGMP; by default the hierarchy gets a
    private [Net.t] on the same engine. *)

val reset : t -> seed:int -> unit
(** Rewind every node to the state {!create} left it in, in place, as if
    the hierarchy had been created from [Rng.create seed]: that
    generator (the one passed to {!create}) is reseeded and the node
    RNGs re-split from it in [ids] order, each node is {!Masc_node.reset}
    and re-wired (children, top meshes, bootstrap space).  Channels and
    listeners stay.  The engine and the net are the caller's to reset
    ({!Engine.reset}, {!Net.reset}). *)

val of_topo :
  engine:Engine.t ->
  rng:Rng.t ->
  ?config:Masc_node.config ->
  ?net:Net.t ->
  Topo.t ->
  t
(** Hierarchy from the topology: each domain's parent is its first
    provider (link-insertion order); provider-less domains are top
    level. *)

val node : t -> Domain.id -> Masc_node.t
(** @raise Not_found for a domain with no MASC node. *)

val ids : t -> Domain.id list

val start : t -> unit
(** Start every node (tops first, then down the hierarchy). *)

val reparent : t -> child:Domain.id -> new_parent:Domain.id -> unit
(** Move a child domain under a different parent (multi-provider
    failover): rewires the relay lists on both parents, switches the
    child's node, and has the new parent advertise its space.
    @raise Invalid_argument if [child] is top-level or [new_parent] is
    unknown. *)

val partition : t -> Domain.id -> Domain.id -> unit
(** [Net.fail_link] on the transport: both directions between the two
    domains go down — future messages drop at the source, in-flight ones
    are lost — until {!heal}.  On a shared transport this partitions the
    pair for every protocol, not just MASC. *)

val heal : t -> Domain.id -> Domain.id -> unit
(** [Net.restore_link] on the transport. *)

val messages_dropped : t -> int

val total_collisions : t -> int
(** Sum of collisions suffered across nodes. *)
