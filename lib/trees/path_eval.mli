(** Sender→receiver path lengths on the four kinds of inter-domain
    multicast distribution trees the paper compares in §5.4:

    - {b shortest-path trees} (DVMRP / PIM-DM / MOSPF): data follows the
      unicast shortest path — the baseline, ratio 1.0;
    - {b unidirectional shared trees} (PIM-SM): data travels from the
      sender to the RP, then down the shared tree;
    - {b bidirectional shared trees} (CBT / plain BGMP): data flows
      toward the root only until it meets the tree, then along tree
      edges in either direction;
    - {b hybrid trees} (BGMP + §5.3 source-specific branches): receivers
      whose shortest path to the source beats their shared-tree path
      graft a branch toward the source; the branch stops at the first
      node already on the bidirectional tree or at the source domain.

    Path lengths are counted in inter-domain hops, as in the paper. *)

type group = {
  source : Domain.id;
  root : Domain.id;  (** root domain = RP = core, for comparability *)
  receivers : Domain.id array;  (** join order = array order *)
}

type paths = {
  spt : int array;  (** per receiver: shortest-path hops from the source *)
  unidirectional : int array;
  bidirectional : int array;
  hybrid : int array;
}

val evaluate : ?from_source:Spf.paths -> ?from_root:Spf.paths -> Topo.t -> group -> paths
(** Compute all four path lengths for every receiver of the group.

    [?from_source] / [?from_root] supply precomputed [Spf.bfs] results
    for the group's source and root (typically from an {!Spf.cache});
    each must have the matching [src] or [Invalid_argument] is raised.
    The root paths are also threaded into the shared tree, so a
    fully-supplied call runs no BFS at all; when the root is the source,
    the source's paths serve for both.  Paths computed on a topology of
    another size are rejected with [Invalid_argument] too.  Each call
    builds its tree afresh; see {!evaluate_with} for the reusable form. *)

val draw_receivers : Rng.t -> n:int -> source:Domain.id -> int -> Domain.id array
(** [draw_receivers rng ~n ~source size] draws [size] distinct receivers
    from [\[0, n)], none of them [source]: [size + 1] draws without
    replacement, the source dropped if drawn, the first [size] kept.
    Requires [size < n].  A fresh array over {!draw_receivers_into}. *)

val draw_receivers_into :
  Rng.t -> n:int -> source:Domain.id -> int -> Domain.id array -> unit
(** [draw_receivers_into rng ~n ~source size dst] makes the same draws
    as [draw_receivers rng ~n ~source size] and leaves the receivers in
    [dst.(0 .. size - 1)]; [dst.(size)] is scratch.
    @raise Invalid_argument if [dst] is shorter than [size + 1]. *)

(** {2 Reusable workspace}

    Everything one evaluation needs: two resumable BFS searches
    ({!Spf.search}) and a resettable {!Shared_tree.t}, sized by the
    graph, plus a receiver buffer and the four result buffers, grown to
    the largest group seen.  The two searches are a two-slot BFS cache
    keyed by source node: each holds the BFS of the node it was last
    started from, and one BFS serves a node as a group's source and as
    a group's root alike.

    A slot's search runs only as far as the evaluations so far have
    needed: before an evaluation, each endpoint's search advances until
    the group's other endpoint and every receiver are discovered, since
    those and the [via] chains behind them (discovered before their
    ends) are all an evaluation reads.  The next evaluation on the slot
    resumes where it stopped.  Discovery order is the full BFS's, so
    every value read equals the full BFS's, and results equal
    {!evaluate}'s.  Partial paths never leave the workspace (see
    {!workspace_tree}).  A harness running many groups over one
    topology keeps one workspace per worker (e.g. from
    {!Par.map_with}'s [~init]); once the buffers have grown, an
    evaluation allocates nothing.  Its result lives in the workspace
    and stays valid until the next evaluation there.  Ordering groups
    so that consecutive ones share an endpoint makes each group after
    the first cost one BFS instead of two. *)

type workspace

val make_workspace : Topo.t -> workspace
(** A workspace for the topology's current snapshot ({!Topo.freeze}),
    with both slots empty. *)

val evaluate_with : workspace -> Topo.t -> group -> paths
(** The same paths as [evaluate topo group], computed in the workspace:
    the receivers are copied into its receiver buffer and the result is
    its result buffers, whose first [k] entries ([k] the group's
    receiver count) are the group's.  The buffers may be longer, so
    read them through [k] (as {!ratios} does); they are overwritten by
    the next evaluation in the workspace.
    A BFS starts only for an endpoint (source or root) whose tree is in
    neither slot, and it replaces the slot the group does not need;
    so a group whose endpoints are both cached runs no BFS, and a chain
    of [k] groups in which each shares an endpoint with the one before
    runs at most [k + 1] (exactly that when the chain walks through
    [k + 1] distinct nodes).  Which BFS runs
    depends only on the groups evaluated since {!make_workspace} or the
    last {!forget}, never on the result.
    @raise Invalid_argument when the topology is not the one (or has
    changed since) the workspace was made for. *)

val draw_with : workspace -> Rng.t -> source:Domain.id -> int -> Domain.id array
(** [draw_with ws rng ~source size] makes the draws of
    [draw_receivers rng ~n ~source size] ([n] the workspace topology's
    domain count) into the workspace's receiver buffer and returns the
    buffer: its first [size] entries are the receivers, until the next
    draw or {!evaluate_with}. *)

val evaluate_drawn : workspace -> Topo.t -> source:Domain.id -> root:Domain.id -> paths
(** {!evaluate_with} of the group of [source], [root] and the receivers
    of the last {!draw_with}, without the copy. *)

val forget : workspace -> unit
(** Empty both slots: the next evaluation runs the BFS of each of its
    endpoints.  A harness calls it at the start of a unit of work whose
    BFS count must not depend on what the worker ran before. *)

val workspace_tree : workspace -> Shared_tree.t
(** The shared tree of the workspace's last evaluation; the next
    evaluation resets it.  The root's search is first run to
    exhaustion, so the tree's root paths are complete and later
    {!Shared_tree.join}s read final labels.  This spends BFS work but
    starts no BFS: [spf.bfs_runs] does not move. *)

type ratio_summary = {
  avg_ratio : float;  (** mean over receivers of (tree path / SPT path) *)
  max_ratio : float;
  receivers_counted : int;  (** receivers with a non-zero SPT distance *)
}

val ratios : baseline:int array -> receivers:int -> int array -> ratio_summary
(** Ratio statistics of a tree's paths against the SPT baseline over
    the first [receivers] entries of each; receivers co-located with
    the source (SPT distance 0) are skipped.
    @raise Invalid_argument if either array is shorter than
    [receivers]. *)
