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
    Requires [size < n]. *)

(** {2 Reusable workspace}

    Everything one evaluation needs that is sized by the graph: a BFS
    queue, a dist/via pair for the source and one for the root, and a
    resettable {!Shared_tree.t}.  A harness running many groups over
    one topology keeps one workspace per worker (e.g. from
    {!Par.map_with}'s [~init]); an evaluation then allocates only its
    result arrays, sized by the group. *)

type workspace

val make_workspace : Topo.t -> workspace
(** A workspace for the topology's current snapshot ({!Topo.freeze}). *)

val evaluate_with : workspace -> Topo.t -> group -> paths
(** The same paths as [evaluate topo group], computed in the workspace:
    one BFS from the source and one from the root (none extra when the
    root is the source).
    @raise Invalid_argument when the topology is not the one (or has
    changed since) the workspace was made for. *)

val workspace_tree : workspace -> Shared_tree.t
(** The shared tree of the workspace's last evaluation; the next
    evaluation resets it. *)

type ratio_summary = {
  avg_ratio : float;  (** mean over receivers of (tree path / SPT path) *)
  max_ratio : float;
  receivers_counted : int;  (** receivers with a non-zero SPT distance *)
}

val ratios : baseline:int array -> int array -> ratio_summary
(** Ratio statistics of a tree's paths against the SPT baseline;
    receivers co-located with the source (SPT distance 0) are skipped. *)
