(** Group-membership workload generators.

    Figure 4 samples receivers uniformly; real sessions cluster
    (audiences concentrate in a few provider subtrees) and churn
    (members join in waves and leave early).  These generators feed
    both the tree-quality experiments and the end-to-end examples. *)

val uniform : rng:Rng.t -> Topo.t -> size:int -> exclude:Domain.id list -> Domain.id list
(** [size] distinct member domains, uniform over the topology minus
    [exclude].  @raise Invalid_argument if fewer candidates remain than
    [size]. *)

val clustered :
  rng:Rng.t -> Topo.t -> size:int -> clusters:int -> exclude:Domain.id list -> Domain.id list
(** Affinity sampling: pick [clusters] random seed domains and draw
    members preferentially near them (by hop distance), modelling
    regionally concentrated audiences.  Falls back to uniform for the
    residue. *)

type beacon_plan = {
  local_fleets : (Domain.id * Host_ref.t list) list;
      (** per domain, its beacon hosts (indices [0 .. per_domain-1]) —
          the members and sources of the domain's own ASM group *)
  session_beacons : Host_ref.t list;
      (** host 0 of every domain: the "border" beacon that also joins
          and sources the interdomain session group *)
}

val beacon_plan : Topo.t -> per_domain:int -> beacon_plan
(** The dbeacon deployment shape: [per_domain] beacons in every domain
    probing their domain's group, plus one beacon per domain on a
    shared interdomain session.  Deterministic — placement is by
    domain/host index, no RNG. *)

val iter_group_churn :
  seed:int ->
  shard:int ->
  domains:int ->
  groups:int ->
  ?join_bias:float ->
  events:int ->
  join:(int -> int -> Domain.id -> int) ->
  leave:(int -> int -> Domain.id -> int -> unit) ->
  unit ->
  unit
(** [iter_group_churn ... ~join ~leave ()] streams a deterministic
    join/leave sequence over [groups] dense group ids and [domains]
    member domains, calling [join seq group node] or
    [leave seq group node receipt] once per event in order.  Each event
    is a join with probability [join_bias] (default 0.55, forced when
    nothing is joined), else a leave of a uniformly random active
    membership.  [seq] is the event's position in the stream and [node]
    is the member's domain.

    Receipts: whatever int [join] returns is kept with that membership
    and handed back, unchanged, as [receipt] to the [leave] that ends
    it — exactly once, and only to that leave.  A consumer keyed by
    join receipts (e.g. [Tree_arena.handle]s, or any marker for "this
    join installed nothing") so tears down exactly the state that join
    installed without an event-indexed table of its own; a [join] that
    returns its [seq] gets back, on each leave, the [seq] of the join it
    cancels.

    Streams are keyed by [(seed, shard)] — equal pairs reproduce the
    exact stream, whatever the callbacks return — and a shard's group
    ids live in block [shard * groups .. (shard+1) * groups - 1], so
    shards running in parallel touch disjoint state at any [--jobs].
    Nothing is materialised: beyond the callbacks' own work, memory is
    the active memberships (three int arrays). *)

type churn_event = { when_ : Time.t; member : Domain.id; joins : bool }

val waves :
  rng:Rng.t ->
  members:Domain.id list ->
  wave_count:int ->
  wave_gap:Time.t ->
  stay:Time.t ->
  churn_event list
(** Members join in [wave_count] waves separated by [wave_gap], each
    member leaving [stay] after joining; events in time order. *)
