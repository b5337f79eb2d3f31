(** Group-membership workloads: the dbeacon deployment plan the beacon
    campaign probes with, and the join/leave churn stream that drives
    fig4-modern. *)

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
  events:int ->
  join:(int -> int -> Domain.id -> int) ->
  leave:(int -> int -> Domain.id -> int -> unit) ->
  unit
(** [iter_group_churn ... ~join ~leave] streams a deterministic
    join/leave sequence over [groups] dense group ids and [domains]
    member domains, calling [join seq group node] or
    [leave seq group node receipt] once per event in order.  Each event
    is a join with probability 0.55 (forced when nothing is joined), else a leave of a uniformly random active
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
