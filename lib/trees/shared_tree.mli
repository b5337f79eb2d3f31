(** A shared multicast distribution tree over the domain graph, built the
    way BGMP/CBT build them: each member's join message walks the
    shortest path toward the root domain and stops at the first router
    already on the tree (§5.1–5.2).

    Join order matters (later members attach to whatever tree the earlier
    members formed), which is exactly why shared trees have longer paths
    than source trees — the effect Figure 4 quantifies. *)

type t

val build : ?to_root:Spf.paths -> Topo.t -> root:Domain.id -> members:Domain.id list -> t
(** Build by incremental joins in list order.  The root is always on the
    tree.  [?to_root] supplies a precomputed [Spf.bfs topo root] (e.g.
    from an {!Spf.cache}) so harnesses evaluating many trees on one
    topology skip the per-build BFS; it must be rooted at [root] and
    computed on a topology of the same size, or [Invalid_argument] is
    raised. *)

val join : t -> Domain.id -> unit
(** Add one more member (its join path is grafted).  A member with no
    path to the root stands alone on the tree at depth 0.
    @raise Invalid_argument on a tree from {!create} not yet {!reset}. *)

(** {2 Reuse}

    [build] is [create], then [reset], then one [join] per member.  A
    harness evaluating many trees on one topology keeps one [t] and
    resets it per tree: the arrays sized by the topology are allocated
    once, and a reset clears only the nodes the previous tree held. *)

val create : Topo.t -> t
(** An empty tree sized for the topology, with no root until {!reset}. *)

val reset : t -> to_root:Spf.paths -> root:Domain.id -> unit
(** Empty the tree in O(previous tree size) and re-root it: afterwards
    only [root] is on it, with no members, and joins walk [to_root].
    @raise Invalid_argument when [to_root] is not rooted at [root] or
    was computed on a topology of another size. *)

val root : t -> Domain.id

val on_tree : t -> Domain.id -> bool

val parent : t -> Domain.id -> Domain.id option
(** Next hop toward the root along the tree; [None] at the root (or for
    off-tree nodes). *)

val depth : t -> Domain.id -> int
(** Tree hop count to the root.  @raise Invalid_argument off tree. *)

val tree_distance : t -> Domain.id -> Domain.id -> int
(** Hops along the (unique) tree path between two on-tree domains —
    the path bidirectional data actually takes.
    @raise Invalid_argument when either endpoint is off the tree, or the
    two are not connected on it (an unreachable member stands alone). *)

val entry_point : t -> Domain.id -> Domain.id option
(** Where data from an off-tree sender first meets the tree: follow the
    tree's shortest paths toward the root from the sender until an
    on-tree domain appears ([§5.2]: "it simply forwards the packets to
    the next hop towards the root domain").  Returns [None] when the
    sender cannot reach the root.  If the sender is on the tree, it is
    its own entry point. *)

val members : t -> Domain.id list
(** Domains that explicitly joined, in join order. *)
