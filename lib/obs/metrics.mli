(** Domain-aware metrics registry.

    Named counters, gauges and fixed-bucket histograms with O(1)
    hot-path updates: an instrument handle is looked up (or created)
    once by name and then updated without any allocation or hashing.
    Names are hierarchical dot-paths ([bgmp.join_sent],
    [masc.collisions], [sim.events_fired], [spf.cache_hits]) so
    snapshots group naturally by subsystem.

    Every domain records into the registry of its current
    {!Obs_ctx} context, so parallel tasks need no locks: the main
    domain's registry is {!default}; a task run under [Obs.capture]
    records into a fresh one that [Obs.merge] folds back with
    {!merge_into}.  A handle is its name's process-wide slot and a
    registry a table keyed by slot, so a handle is valid under any
    registry and module-toplevel handles stay safe inside parallel
    tasks.  An update reads the current registry (a flag test and a
    load on the main domain while no [Par] batch runs, one
    domain-local read during one), then finds its cell at the first
    probe in a registry that holds most instruments (the main one),
    and allocates nothing.  A registry allocates only for the
    instruments used under it: a table at its first one and a cell at
    each one's first use.

    The protocol stack records into {!default}; the evaluation harness
    calls {!reset} before a run and {!snapshot} after it.  Snapshots are
    deterministic (sorted by name), diffable, and exportable as a human
    table or JSON. *)

type counter
type gauge
type histogram

type registry = Obs_ctx.registry

val default : registry
(** The main domain's registry: every instrument in the stack
    registers here outside [Obs.capture]. *)

val current : unit -> registry
(** The registry this domain's updates land in: {!default} on the main
    domain outside [Obs.capture], the capture's own inside one. *)

val merge_into : into:registry -> registry -> unit
(** Fold a registry into [into]: counters and histogram buckets
    add exactly, histogram moment accumulators combine via
    {!Stats.merge}, gauges keep the maximum (the cross-shard reading of
    {!set_max} high-water marks).  Instruments missing from [into] are
    created.  Merging the same shards in the same order is
    deterministic; counter totals are order-independent.
    @raise Invalid_argument on an instrument-kind or histogram-limits
    mismatch. *)

(** {1 Instrument handles}

    [counter]/[gauge]/[histogram] find-or-create by name: calling twice
    with the same name returns a handle to the same instrument.
    The name is registered in the current registry at once, and again
    in any other registry the handle is later used under (read or
    updated).  A name's kind is a registry's: the same name may be a
    counter in one registry and a gauge in another, and
    {!merge_into} rejects the pair.
    @raise Invalid_argument if the name is already registered as a
    different kind of instrument. *)

val counter : string -> counter
val gauge : string -> gauge

val histogram : ?limits:float array -> string -> histogram
(** [limits] are the bucket upper bounds (inclusive), in increasing
    order; one overflow bucket is added above the last limit.  The
    default limits are decades from 1e-3 to 1e6 — adequate for
    durations in simulated seconds. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the running maximum: [set_max g v] is [set g v] when [v]
    exceeds the current value (high-water marks like queue depth). *)

val set_int : gauge -> int -> unit
(** [set g (float_of_int n)], with no float crossing the call, so a
    per-message gauge update allocates nothing even uninlined. *)

val set_max_int : gauge -> int -> unit
(** [set_max g (float_of_int n)], allocation-free like {!set_int}. *)

val value : gauge -> float

val observe : histogram -> float -> unit

val reset : registry -> unit
(** Zero every instrument in place.  Handles stay valid. *)

(** {1 Snapshots} *)

type hist_view = {
  hcount : int;
  hsum : float;
  hmean : float;
  hstddev : float;
  hmin : float;  (** 0. when empty *)
  hmax : float;  (** 0. when empty *)
  hbuckets : (float * int) list;
      (** (upper bound, observations in this bin); the overflow bin's
          bound is [infinity] *)
}

type value = Counter_v of int | Gauge_v of float | Histogram_v of hist_view

type snapshot = (string * value) list
(** Sorted by name: two identical seeded runs yield equal snapshots. *)

val snapshot : registry -> snapshot

val find : snapshot -> string -> value option

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-instrument delta: counters and histogram counts/sums subtract
    (names absent from [before] count from zero); gauges and histogram
    min/max/mean report the [after] side. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable table, one instrument per line. *)

val to_json : snapshot -> string
(** Deterministic JSON document:
    [{"metrics": [{"name": ..., "kind": ..., ...}, ...]}]. *)
