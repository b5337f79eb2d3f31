(** Fixed-size domain pool for deterministic fan-out.

    The pool spawns its worker domains once, on first use, and reuses
    them for every subsequent batch — OCaml domains are heavyweight
    (each owns a minor heap), so per-call [Domain.spawn] would swamp
    the work being parallelised.  [map] submits a batch, participates
    in draining it from the calling domain, and returns results in
    input order regardless of which domain ran which task.

    The pool knows nothing of observability; it only tells, through
    {!workers_running}, whether a task may be running on another domain.

    Determinism contract: with [jobs = 1] no domains are involved and
    tasks run inline in order, through the same code path callers use
    at any job count.  At [jobs > 1] only scheduling changes; callers
    keep output byte-identical by giving each task its own RNG stream,
    running it under [Obs.capture], and folding the shards back with
    [Obs.merge] in task order.

    Exceptions: if tasks raise, the batch still runs to completion (no
    cancellation) and the exception of the lowest-indexed failing task
    is re-raised in the caller with its backtrace.

    Nested [map] (a task calling [map]) runs the inner batch inline on
    the worker — the pool never deadlocks waiting on itself. *)

val set_jobs : int -> unit
(** Set the default job count used when [?jobs] is omitted.  [0] means
    [Domain.recommended_domain_count ()].  Call from the main domain
    before any parallel work; raising the count grows the pool on the
    next batch, lowering it just idles extra workers. *)

val workers_running : unit -> bool
(** Whether a batch is running on worker domains: set from just before
    the main domain publishes one until every one of its tasks has
    finished.  While it is [false], only the main domain runs code of
    this program. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, running up to
    [jobs] tasks concurrently (the caller's domain counts as one), and
    returns results in input order. *)

val map_with : ?jobs:int -> init:(unit -> 's) -> ('s -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map} with per-worker local state: [init] runs at most once
    per worker slot per batch, lazily, on the domain that uses it, and
    its result is passed to every task that slot executes.  Use it for
    scratch state that is expensive to build and unobservable in the
    output — e.g. one {!Spf.workspace} per worker.  Anything that
    affects output must be per-task, not per-worker. *)
