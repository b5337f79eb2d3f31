(** One capture and one merge for every observability stream.

    A parallel task runs under {!capture}, which swaps a fresh
    {!Obs_ctx} context in on its domain: an empty metrics registry, a
    detached profiler root, a keep-all record buffer and a fresh span
    minter.  The submitting domain folds each task's shard back with
    {!merge} at the join point, in task order, so [--metrics],
    [--profile] and [--fingerprint] output is independent of
    scheduling.  While the profiler and the recorder are off, a capture
    shares one empty profiler root and one empty record buffer, and its
    registry's table and its minter are made at their first use, so a
    capture that records nothing costs its context, an empty registry
    and the shard (16 words with the pair it returns), and its merge
    allocates nothing. *)

type shard

val capture : (unit -> 'a) -> 'a * shard
(** Run the thunk in a fresh context on this domain, restoring the
    previous one afterwards (exceptions included), and return its
    result with the context it ran in. *)

val merge : shard -> unit
(** Fold a shard into this domain's current context:
    - counters and histogram buckets add and gauges keep the maximum
      ({!Metrics.merge_into});
    - the profiler subtree is grafted under the open span, adding
      counts, wall-clock and bytes into same-named sections in
      first-entered order (a no-op while the profiler is off);
    - records are replayed through the live recorder, renumbered,
      hashed and sunk as if recorded here (a no-op while it is off). *)
