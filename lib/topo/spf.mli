(** Shortest-path computations over the domain graph.

    Path lengths in the paper's Figure 4 are counted in inter-domain
    hops, so BFS is the primary tool; a latency-weighted Dijkstra is also
    provided for the event-driven stack.  Policy-constrained ("valley
    free") paths model BGP export rules: a route learned from a provider
    or peer is only exported to customers, so a valid path is a
    customer→provider ascent, at most one peer edge, then a
    provider→customer descent.

    The default entry points ({!bfs}, {!dijkstra}, {!valley_free_dist})
    freeze the topology into a CSR snapshot (memoized by {!Topo.freeze})
    and run flat-array kernels over it with a shared preallocated
    workspace.  For hot loops, freeze once and call the [_csr] kernels
    with an explicit {!workspace}; for repeated same-source queries, use
    a {!cache}. *)

type paths = {
  src : Domain.id;
  dist : int array;  (** hop count; [max_int] when unreachable *)
  via : Domain.id array;  (** predecessor toward [src]; [-1] at [src] / unreachable *)
}

val bfs : Topo.t -> Domain.id -> paths
(** Single-source shortest hop counts.  Neighbor exploration follows
    link-insertion order, making tie-breaks deterministic. *)

val dist : paths -> Domain.id -> int

val path : paths -> Domain.id -> Domain.id list
(** The node sequence from [src] to the argument, inclusive; [\[\]] when
    unreachable. *)

val next_hop_toward : Topo.t -> paths -> Domain.id -> Domain.id option
(** First hop on the shortest path from the given node back toward
    [paths.src]; [None] at the source or when unreachable.  (This is the
    "next hop toward the root domain" a G-RIB lookup yields.) *)

type weighted = {
  wsrc : Domain.id;
  wdist : float array;  (** summed link delay in seconds; [infinity] unreachable *)
  wvia : Domain.id array;
}

val dijkstra : Topo.t -> Domain.id -> weighted
(** Latency-weighted single-source shortest paths. *)

val wpath : weighted -> Domain.id -> Domain.id list

val valley_free_dist : Topo.t -> Domain.id -> int array
(** Hop distance from the source to every node along policy-valid
    (valley-free, at most one peer edge) paths, i.e. paths that BGP route
    export would actually reveal.  [max_int] when no policy-compliant
    path exists. *)

(** {2 CSR kernels}

    Allocation-free apart from the result arrays: all scratch (BFS
    queue, Dijkstra heap and settled flags, valley-free phase table)
    lives in a reusable {!workspace}.  When [?ws] is omitted a fresh
    workspace is allocated for the call.

    Each kernel takes an optional [?alive] mask keyed by link id
    (through [csr.eid]): a link whose entry is [false] is never relaxed,
    so the kernels double as from-scratch oracles for trees maintained
    under link failures.  An empty (or omitted) mask means every link is
    alive. *)

type workspace

val make_workspace : Topo.csr -> workspace
(** Scratch sized for the given snapshot.  A workspace may be reused
    across snapshots; it grows as needed and is never shrunk. *)

val bfs_into :
  ws:workspace ->
  ?alive:bool array ->
  Topo.csr ->
  dist:int array ->
  via:Domain.id array ->
  Domain.id ->
  paths
(** The BFS kernel over caller-owned result arrays: [dist] and [via] are
    overwritten (every entry, so they may hold a previous run) and
    returned in a fresh 4-word [paths] record, the run's only
    allocation.  A caller that reuses one pair per worker therefore
    allocates nothing proportional to the graph; the returned [paths]
    is a view that the next run into the same arrays overwrites.
    @raise Invalid_argument when [dist] or [via] is not sized for the
    snapshot, or the source is out of range. *)

val bfs_csr : ?ws:workspace -> ?alive:bool array -> Topo.csr -> Domain.id -> paths
(** {!bfs_into} over freshly allocated result arrays. *)

val dijkstra_csr : ?ws:workspace -> ?alive:bool array -> Topo.csr -> Domain.id -> weighted

val valley_free_dist_csr :
  ?ws:workspace -> ?alive:bool array -> Topo.csr -> Domain.id -> int array

type vftree = {
  vsrc : Domain.id;
  vdist : int array;
      (** per layered state [3 * node + phase] (phase 0 = Up, 1 = Peered,
          2 = Down); [max_int] unreachable *)
  vvia : int array;  (** predecessor {e state}; [-1] at the root / unreachable *)
  vbest : int array;  (** per node: min over its three states — what
                          {!valley_free_dist} reports *)
}
(** The full valley-free layered tree, kept (rather than just the
    per-node minimum) so the incremental cache can repair it in place. *)

(** {2 Maintained SPF cache}

    Memoizes BFS / Dijkstra / valley-free trees per source id over one
    frozen snapshot — and {e maintains} them under link deltas instead
    of invalidating.  {!cache_note_link} flips a link's alive bit and
    ripple-repairs only the affected subtree of every filled slot:
    restores seed a decrease-ripple from the link's endpoints, failures
    cut the orphaned subtree and re-settle it from its intact boundary.
    Wire it to the event stack with
    [Net.on_link_change net (fun a b ~up -> Spf.cache_note_link cache ~a ~b ~up)].

    Cached results are live views: a [paths] handed out earlier reflects
    repairs applied later.  The cache holds its own workspace. *)

type cache

val make_cache : Topo.t -> cache
(** Freezes the topology ({!Topo.freeze}, memoized) and starts an empty
    cache over the snapshot. *)

val make_cache_csr : ?ws:workspace -> Topo.csr -> cache
(** With [?ws] the cache borrows the given workspace instead of
    allocating one — e.g. a Par worker's slot-local scratch reused
    across many short-lived per-task caches.  The caller must not use
    the workspace from another domain while the cache is live. *)

val cache_csr : cache -> Topo.csr
(** The snapshot this cache computes over. *)

val bfs_cached : cache -> Domain.id -> paths
(** [bfs] from the given source, computed at most once per cache and
    repaired in place across link deltas. *)

val dijkstra_cached : cache -> Domain.id -> weighted

val valley_free_cached : cache -> Domain.id -> int array
(** The maintained equivalent of {!valley_free_dist}; the returned array
    is the live [vbest] of {!valley_free_tree_cached}. *)

val valley_free_tree_cached : cache -> Domain.id -> vftree

val cache_note_link : cache -> a:Domain.id -> b:Domain.id -> up:bool -> unit
(** Record that the link between [a] and [b] went down ([up:false]) or
    came back ([up:true]) and repair every filled slot.  A pair that is
    not a link of the snapshot, or a transition to the state the link is
    already in, is a silent no-op. *)

val cache_adopt : cache -> Topo.csr -> unit
(** Move the cache onto a fresh snapshot of the {e same} graph after
    links were appended ({!Topo.add_link} + {!Topo.freeze}): each
    appended link is insert-repaired into every filled slot.  A snapshot
    that is not the old graph plus appended links (nodes changed, links
    rewritten) drops all maintained trees instead. *)

val cache_link_alive : cache -> a:Domain.id -> b:Domain.id -> bool
(** Current alive state of a link ([true] for unknown pairs). *)

val cache_alive_mask : cache -> bool array
(** The mask consumed by the [?alive] kernels; [[||]] means every link
    is alive.  Shared, not copied — treat as read-only. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] so far. *)

val cache_repair_stats : cache -> int * int
(** [(repairs, touched)]: link transitions that repaired at least one
    maintained tree, and total labels rewritten doing so.  Mirrored by
    the [spf.inc_repairs] / [spf.inc_touched] counters. *)
