(** Baseline inter-domain multicast schemes from the paper's related
    work (§6), modelled at the same level as {!Path_eval} so they can
    be compared against BGMP's trees.

    {b HPIM} (Handley, Crowcroft, Wakeman): a hierarchy of rendezvous
    points chosen by hash functions; a receiver joins the lowest-level
    RP, which joins the next level, and so on.  The paper's criticism —
    "as HPIM uses hash functions to choose the next RP at each level,
    the trees can be very bad in the worst case, especially for global
    groups" — is what {!hpim_paths} quantifies: the RP chain is placed
    by hash (here: uniformly at random from the group id), so no level
    has any locality.

    {b HDVMRP} (Thyagarajan, Deering): inter-region flood-and-prune.
    Data follows shortest paths (ratio 1.0 by construction), but the
    initial flood of every new source reaches {e every} boundary
    router, and each boundary router must keep per-source, per-group
    prune state.  {!hdvmrp_costs} reports those overheads next to
    BGMP's, which grow only with the tree. *)

val hpim_paths :
  ?spf:Spf.cache ->
  ?rps:int array ->
  Topo.t ->
  rng:Rng.t ->
  levels:int ->
  source:Domain.id ->
  receivers:Domain.id array ->
  int array
(** Sender→receiver path lengths (inter-domain hops) on an HPIM tree
    with [levels] hash-placed RPs: receivers join RP1; RP1 joins RP2;
    …; the sender forwards to RP1 and data flows along the joined
    structure bidirectionally.  [?spf] supplies a shared SPF cache so
    repeated trials on one topology reuse BFS results.  [?rps] supplies
    the RP chain (length [levels], lowest level first) instead of
    drawing it from [rng] — used when draws are hoisted out of a
    parallel task.
    @raise Invalid_argument if [Array.length rps <> levels]. *)

type hdvmrp_cost = {
  flood_deliveries : int;
      (** domains that receive the initial flood of one source's data
          (all of them, §6: "floods data packets to the boundary routers
          of all regions") *)
  prune_messages : int;  (** prunes sent back by non-member domains *)
  per_router_state : int;
      (** source×group state entries a single boundary router must hold
          for this workload *)
}

val hdvmrp_costs : Topo.t -> senders:int -> groups:int -> members:int -> hdvmrp_cost
(** Overhead of HDVMRP for a workload of [groups] groups, each with
    [senders] active sources and [members] member domains. *)

type comparison_point = {
  cmp_group_size : int;
  hpim_avg : float;
  hpim_max : float;
  bgmp_hybrid_avg : float;
  bgmp_hybrid_max : float;
}

val compare_hpim :
  ?nodes:int ->
  ?levels:int ->
  ?trials:int ->
  ?sizes:int list ->
  ?jobs:int ->
  seed:int ->
  unit ->
  comparison_point list
(** Path-quality comparison of HPIM vs BGMP hybrid trees on the same
    groups over the same power-law topology; group sizes of [nodes] or
    more do not fit it and are skipped.  [?jobs] fans the trials
    out over the {!Par} pool (default: the pool's job count); all
    randomness is drawn up front and Obs shards fold back in trial
    order, so output is byte-identical at any job count. *)
