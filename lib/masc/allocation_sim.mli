(** The paper's §4.3.3 MASC claim-algorithm simulation (Figure 2).

    A two-level hierarchy of [tops] top-level domains, each with
    [children_per_top] child domains.  Each child's allocation server
    requests blocks of [block_size] addresses with lifetime
    [block_lifetime]; inter-request times are uniform on
    [\[request_min, request_max\]].  Children claim prefixes from their
    parent's space and parents claim from 224/4.  The two levels share
    one claim lifecycle: the §4.3.3 policy (75 % occupancy target, at
    most two prefixes, doubling / small-claim / consolidation) and the
    claim lifetime with renewal-time right-sizing, draining and release.
    They differ only in where a claim registers (224/4, or the parent's
    space), what its claimed space feeds (a parent's claims cover its
    children's arena; a child's count as used in the parent's covering
    claim and may push the parent to grow) and how a blocked level
    escalates (a child grows its parent and retries; a parent, with
    nothing above 224/4, claims by force within its prefix budget).

    The simulator runs the claim algorithm synchronously against each
    arena's current registry: the 48-hour collision wait is three orders
    of magnitude below the 30-day dynamics being measured and the paper's
    own simulation tracks exactly these two observables — address-space
    utilization and G-RIB size, defined as in §4.3.3:

    - {e utilization}: fraction of the addresses claimed from 224/4 that
      are actually requested by the allocation servers;
    - {e G-RIB size at a top-level domain}: globally advertised prefixes
      (all top-level claims) plus its children's prefixes;
    - {e G-RIB size at a child}: globally advertised prefixes plus the
      prefixes claimed by its siblings. *)

type params = {
  tops : int;
  children_per_top : int;
  horizon : Time.t;
  policy : Claim_policy.params;
  claim_lifetime : Time.t;
  placement : [ `First | `Random ];  (** sub-prefix placement rule (ablation A2) *)
  hetero_spread : int;
      (** heterogeneity: each top-level domain gets
          [children_per_top ± U(0, hetero_spread)] children (0 = the
          paper's homogeneous 50×50; the paper notes it "also examined
          more heterogeneous topologies with similar results") *)
  check_invariants : bool;
      (** evaluate the ["allocation-overlap"] invariant (no two domains
          hold overlapping live claims) and the ["allocation-live-lists"]
          invariant (every claim a domain lists is alive and registered
          to it in its arena) at every sample; default [false] — the
          O(claims²) sweep is measurable on the full 50×50 run *)
  seed : int;
  telemetry : Timeseries.t option;
      (** when set, every figure sample also lands one [alloc.*] row per
          series in the sink (pending events, outstanding blocks,
          claimed/demanded addresses, utilization, G-RIB avg/max, top
          prefixes), timestamped in sim seconds; default [None] *)
}

val default_params : params
(** The paper's settings: 50×50 domains, 256-address blocks, 30-day
    lifetimes, U[1 h, 95 h] inter-request, 800-day horizon, daily
    samples, 75 % / 2-prefix policy, first-sub-prefix placement. *)

type sample = {
  day : float;
  utilization : float;
  grib_avg : float;
  grib_max : int;
  outstanding_blocks : int;
  claimed_addresses : int;  (** total claimed from 224/4 *)
  demanded_addresses : int;
  top_prefixes : int;  (** globally advertised prefix count *)
  child_prefixes : int;
}

type holding = { h_prefix : Prefix.t; h_active : bool; h_used : int }
(** One claimed prefix at the end of the run. *)

type result = {
  samples : sample array;
  failed_requests : int;  (** block requests that found no space *)
  total_requests : int;
  claims_made : int;
  final_tops : holding list array;  (** per top-level domain *)
  final_children : holding list array;  (** per child domain *)
  invariant_violations : int;
      (** invariant violations seen across all samples (0 unless
          [check_invariants]; also counted in {!Metrics.default}) *)
  top_converged_day : float;
      (** when the set of globally advertised (top-level) prefixes last
          changed — the allocation layer's convergence time, from the
          engine's convergence watermark, which only this layer notes *)
}

val run : params -> result

val steady_state : result -> from_day:float -> sample list
(** The samples at or after [from_day], for summary statistics. *)

val run_many : params list -> result list
(** Run several independent simulations concurrently on the {!Par}
    pool, results in input order.
    Metrics and profiler spans collected by each run land in a
    shard and are merged back in input order, so observability output
    is byte-identical at any job count.
    @raise Invalid_argument if any parameter set carries [telemetry]
    (a worker cannot drive a shared sink). *)
