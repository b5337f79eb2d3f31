(** Topology generators.

    The paper evaluates on (a) a 50-top-level × 50-children two-level
    hierarchy for the MASC simulations and (b) a 3326-node graph derived
    from 1998 BGP table dumps for the tree-quality simulations.  The dump
    is unobtainable, so [power_law] synthesises an internet-like graph of
    the same scale (preferential attachment reproduces the AS graph's
    heavy-tailed degree distribution and small diameter), and
    [transit_stub] provides an alternative hierarchical shape — the paper
    notes its results were similar across generated topologies. *)

val power_law : rng:Rng.t -> n:int -> m:int -> Topo.t
(** Barabási–Albert preferential attachment: [n] domains, each newcomer
    attaching to [m] distinct existing domains with probability
    proportional to degree.  The first [m+1] domains form a clique and
    are marked [Backbone]; nodes that end up with degree > 1 are
    [Regional]; degree-1 nodes are [Stub].  Links are provider→customer
    from the earlier (higher-degree) node.  Connected by construction.
    @raise Invalid_argument if [n <= m] or [m < 1]. *)

val transit_stub :
  rng:Rng.t ->
  backbones:int ->
  regionals_per_backbone:int ->
  stubs_per_regional:int ->
  Topo.t
(** Classic transit-stub hierarchy: a clique of backbones, each with a
    ring of regional customers, each regional with stub customers; a few
    random peer links between regionals add path diversity. *)

val masc_hierarchy : tops:int -> children_per_top:int -> Topo.t
(** The Figure-2 experiment shape: [tops] backbone domains in a full mesh
    (so every top-level domain hears every sibling claim), each with
    [children_per_top] stub customers. *)

val figure1 : unit -> Topo.t
(** The seven-domain example topology of Figure 1: backbones A, D, E;
    regionals B, C under A; stubs F under B and G under C.  Domain names
    match the figure ("A".."G"). *)

val figure3 : unit -> Topo.t
(** The eight-domain topology of Figure 3: as Figure 1 plus domain H
    under C, a peer link F–A (via border router F2 in the paper), and
    the D–A / E–A links used by the walkthrough. *)
