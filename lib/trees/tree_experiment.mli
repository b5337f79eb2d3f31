(** The Figure-4 experiment: path-length overhead of unidirectional,
    bidirectional, and hybrid trees relative to shortest-path trees, as
    the number of receivers grows.

    The paper used a 3326-node topology derived from 1998 BGP table
    dumps; we generate a power-law graph of the same scale, two
    preferential-attachment edges per new node (see DESIGN.md).  For each group size, [trials] independent groups are
    sampled: a random source, receivers drawn without replacement, and
    the root domain placed at the group initiator — the first receiver —
    per §5.1 ("the group initiator's domain is normally also the group's
    root domain").  The RP of the unidirectional tree and the core of
    the bidirectional tree are the same domain, isolating tree shape
    from root placement. *)

type root_placement =
  | Root_at_initiator  (** the paper's default: first receiver's domain *)
  | Root_at_source  (** ablation: the sender's own domain *)
  | Root_random  (** ablation: an unrelated third-party domain *)

type params = {
  nodes : int;  (** 3326 in the paper *)
  group_sizes : int list;
  trials : int;  (** independent groups per size *)
  root_placement : root_placement;
  topology : [ `Power_law | `Transit_stub ];
  check_invariants : bool;
      (** evaluate the ["tree-ratio"] invariant after every trial: all
          ratios vs SPT are >= 1 and every receiver was evaluated;
          default [false] *)
  seed : int;
  telemetry : Timeseries.t option;
      (** when set, one [trees.*] row per series lands in the sink after
          each group-size point (worst ratios so far, trials run), with
          the group size as the time axis; default [None] *)
  jobs : int;
      (** domains running trials concurrently (one task per chunk of
          trials, see {!schedule}); [0] means the {!Par} pool default.
          Every trial's randomness is drawn up front on the calling
          domain and every Obs shard is folded back in trial order, so
          results, metrics, profiles and telemetry are byte-identical
          at any job count; default [0] *)
}

val default_params : params
(** 3326 nodes, sizes 1..1000 (log-spaced), 20 trials, root at
    initiator, power-law topology. *)

type point = {
  group_size : int;
  uni_avg : float;
  uni_max : float;
  bi_avg : float;
  bi_max : float;
  hy_avg : float;
  hy_max : float;
}
(** Ratios vs SPT averaged over trials; the [_max] fields average each
    trial's worst receiver (the paper's "max" curves). *)

type result = {
  points : point list;  (** one per group size that fits the topology *)
  worst_uni : float;  (** absolute worst ratio seen across the run *)
  worst_bi : float;
  worst_hy : float;
  invariant_violations : int;
      (** 0 unless [check_invariants]; also counted in
          {!Metrics.default} *)
}

val run : params -> result

val schedule : nodes:int -> (Domain.id * Domain.id) array -> int array list
(** The order {!run} evaluates its trials in.  Trial [i] is the edge
    [ends.(i) = (source, root)] of a multigraph on [\[0, nodes)] (a
    self-loop when the root is the source); the multigraph is cut
    greedily into trails, each walk starting at a node of odd remaining
    degree while one is left, then at any node with unused edges, and
    following unused edges until it is stuck.  Each trail is cut into
    chunks of at most 64 trials: the result lists every trial index
    exactly once, and consecutive trials in a chunk share an endpoint.
    [run] evaluates one chunk per {!Par} task, emptying the worker's
    BFS slots ({!Path_eval.forget}) first, so a chunk of [k] trials
    costs at most [k + 1] BFS runs at any job count. *)

val series_of_result : result -> Stats.series list
(** Six printable series, labelled like the paper's legend. *)
