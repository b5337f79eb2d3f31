(** Shortest hop-count paths over the domain graph.

    The paper measures its trees in inter-domain hops (§6, Figure 4), so
    BFS is the one shortest-path kernel.  BGP policy (valley-free,
    Gao–Rexford export) is not a path kernel: the BGP speakers enforce
    it, and the [grib-valley-free] invariant of [Internet] checks the
    routes they install.

    {!bfs} freezes the topology into a CSR snapshot (memoized by
    {!Topo.freeze}) and runs the flat-array kernel over it with a shared
    preallocated workspace.  For hot loops, freeze once and call
    {!bfs_into} / {!bfs_csr} with an explicit {!workspace}; for repeated
    same-source queries under link churn, use a {!cache}. *)

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

(** {2 CSR kernel}

    Allocation-free apart from the result arrays: the BFS queue (and
    the heap the cache's delete repair settles orphans with) lives in a
    reusable {!workspace}.  When [?ws] is omitted a fresh workspace is
    allocated for the call.

    The kernel takes an optional [?alive] mask keyed by link id (through
    [csr.eid]): a link whose entry is [false] is never relaxed, so the
    kernel doubles as the from-scratch oracle for trees maintained under
    link failures.  An empty (or omitted) mask means every link is
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

(** {2 Maintained SPF cache}

    Memoizes BFS trees per source id over one frozen snapshot — and
    {e maintains} them under link deltas instead of invalidating.  {!cache_note_link} flips a link's alive bit and
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

val bfs_cached : cache -> Domain.id -> paths
(** [bfs] from the given source, computed at most once per cache and
    repaired in place across link deltas. *)

val cache_note_link : cache -> a:Domain.id -> b:Domain.id -> up:bool -> unit
(** Record that the link between [a] and [b] went down ([up:false]) or
    came back ([up:true]) and repair every filled slot.  A pair that is
    not a link of the snapshot, or a transition to the state the link is
    already in, is a silent no-op. *)

val cache_reset : cache -> unit
(** Return the cache to the state {!make_cache_csr} left it in: every
    link alive again, no tree filled, and {!cache_stats} and
    {!cache_repair_stats} at zero.  The filled trees' [dist]/[via]
    arrays are kept, and later {!bfs_cached} misses recompute into them
    with {!bfs_into} before allocating new ones — so every answer,
    hit/miss count and [spf.bfs_runs] tick matches a fresh cache, minus
    the n-sized allocations.  A [paths] handed out before the reset is
    no longer maintained, and a later miss may overwrite it. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] so far. *)

val cache_repair_stats : cache -> int * int
(** [(repairs, touched)]: link transitions that repaired at least one
    maintained tree, and total labels rewritten doing so.  Mirrored by
    the [spf.inc_repairs] / [spf.inc_touched] counters. *)
