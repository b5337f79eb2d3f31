(** Shortest hop-count paths over the domain graph.

    The paper measures its trees in inter-domain hops (§6, Figure 4), so
    BFS is the one shortest-path kernel.  BGP policy (valley-free,
    Gao–Rexford export) is not a path kernel: the BGP speakers enforce
    it, and the [grib-valley-free] invariant of [Internet] checks the
    routes they install.

    {!bfs} freezes the topology into a CSR snapshot (memoized by
    {!Topo.freeze}) and runs the flat-array kernel over it with a shared
    preallocated workspace.  For hot loops, freeze once and call
    {!bfs_into} / {!bfs_csr} with an explicit {!workspace}; for queries
    that read only a few nodes of each tree, use a resumable {!search};
    for repeated same-source queries under link churn, use a {!cache}. *)

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

(** {2 Resumable search}

    A {!search} is one BFS that stops as soon as the nodes a caller
    needs are discovered and resumes when it needs more.  It owns its
    [dist]/[via] arrays and its FIFO queue; {!bfs_into} is the same
    loop started over the caller's arrays and run to exhaustion.

    What a partial search guarantees: the nodes it has discovered are a
    prefix of the full BFS's discovery order, and each of them has its
    final [dist] and [via] — BFS labels a node once, when it discovers
    it, and resuming the FIFO where it stopped expands the remaining
    nodes in the same order the uninterrupted loop would have.  A
    discovered node's [via] chain back to the source is discovered too
    (each hop was discovered earlier).  An undiscovered entry reads
    [max_int] / [-1], which means "not yet known", never "unreachable":
    only once the queue is empty ({!complete}, or a {!reach} that ran it
    dry) does [max_int] mean unreachable, and then both arrays equal
    {!bfs}'s exactly.  A partial {!search_paths} view must therefore not
    be handed to code that reads other nodes.

    Restarting a search writes back only the entries its previous run
    discovered (the queue prefix), not all n.  Each {!start} counts as
    one [spf.bfs_runs]. *)

type search

val make_search : Topo.csr -> search
(** A search over the snapshot with no source yet. *)

val start : search -> Domain.id -> unit
(** Begin a new BFS from the given source: only the source is
    discovered.
    @raise Invalid_argument when the source is out of range. *)

val reach : search -> Domain.id -> unit
(** [reach s v] advances the FIFO until [v] is discovered or the queue
    is empty; a no-op when [v] is already discovered.
    @raise Invalid_argument when [v] is out of range or [s] was never
    started. *)

val complete : search -> unit
(** Run the search to exhaustion.
    @raise Invalid_argument when [s] was never started. *)

val search_source : search -> Domain.id
(** The source of the current BFS, [-1] before the first {!start}. *)

val search_paths : search -> paths
(** The search's live view: a [paths] over its own arrays, allocated
    once per {!start} and updated in place by later {!reach} and
    {!complete} calls; see the contract above for what its undiscovered
    entries mean.  A view from an earlier start shares the arrays, so
    the next {!start} overwrites it.  Before the first start, the view
    has [src = -1] and empty arrays. *)

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
    came back ([up:true]) and repair every filled slot, in ascending
    source order, under the [spf.repair] profiler span.  A pair that is
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
