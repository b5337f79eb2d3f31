(** The `fig4-modern' experiment: the paper's state-vs-members study
    rescaled to today's AS graph.

    Figure 4 measured tree quality on a 3326-node 1998 snapshot; ROADMAP
    item 2 asks what per-router state looks like at ~75k domains and
    10⁵ groups.  Each trial drives a deterministic join/leave stream
    ({!Membership.iter_group_churn}) plus periodic link failures/restores
    over a transit-stub topology, installs member paths into
    arena-backed state ({!Tree_arena} forwarding entries, {!Grib_arena}
    group-range next hops), and samples per-router state at fixed
    checkpoints.  Routing is served from a maintained {!Spf.cache}
    repaired in place on every link event ({!Incremental}) or, as the
    retired baseline kept for comparison, recomputed from scratch
    ({!Scratch}).

    Trials run in parallel via [Par.map_with]; every printed number is
    byte-identical at any [--jobs] because each trial draws its own
    [(seed, trial)] streams and reduces in trial order.  A worker builds
    its arenas and SPF cache once and resets them at the start of each
    trial; the reset state answers exactly as fresh state would. *)

type mode = Incremental | Scratch

type params = {
  domains : int;  (** target domain count; the transit-stub shape solver
                      lands as close under it as the family allows *)
  groups : int;  (** dense group-id space per trial *)
  roots : int;  (** distinct root domains; group [g] roots at
                    [g mod roots] *)
  events : int;  (** membership events per trial *)
  link_every : int;  (** one link toggle (fail or restore of a random
                         peer link) per this many membership events;
                         [0] disables link churn *)
  trials : int;
  seed : int;
  mode : mode;
  jobs : int;  (** 0 = the [Par] default *)
  check_invariants : bool;
      (** evaluate the per-trial state-accounting predicates at every
          checkpoint (each arena's counter vs its per-router sum, join/leave
          balance, live members vs the arena's live paths, G-RIB
          monotonicity and ceiling); violations are counted into each
          trial's shard and summed into [invariant_violations] *)
  telemetry : Timeseries.t option;
      (** when set, one telemetry row per checkpoint (members, entries,
          max/router, stateful routers, G-RIB) is sampled on the main
          domain after the in-order reduce, with the membership-event
          count as the time axis *)
}

val default_params : params
(** Small enough for tests and smoke benches: 2000-domain target, 200
    groups, 8 roots, 4000 events, a link toggle every 500, 2 trials,
    seed 1998, [Incremental]. *)

type checkpoint = {
  ck_events : int;  (** membership events processed at this sample *)
  ck_members : float;  (** live memberships (mean across trials) *)
  ck_entries : float;  (** live (group, router) forwarding entries *)
  ck_max_router : float;  (** largest single-router entry count *)
  ck_stateful : float;  (** routers holding any forwarding state *)
  ck_grib : float;  (** (group-range, router) G-RIB entries *)
}

type result = {
  r_domains : int;  (** actual domain count of the generated topology *)
  r_links : int;
  checkpoints : checkpoint list;
  joins : int;  (** members installed, summed across trials *)
  leaves : int;
  skipped : int;  (** joins dropped because no path existed (churn had
                      partitioned the member from the root) *)
  link_events : int;
  repairs : int;  (** incremental repair passes ([0] under {!Scratch}) *)
  touched : int;  (** labels rewritten by those repairs *)
  invariant_violations : int;
      (** state-accounting violations across all trials ([0] unless
          [check_invariants]) *)
}

val run : params -> result

val pp_summary : Format.formatter -> result -> unit
(** The state-vs-members table. *)
