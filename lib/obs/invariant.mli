(** Live protocol invariants, checked while a run is in flight.

    A monitor holds named predicates over live protocol state.  Each
    predicate returns the list of current violations as
    [(detail, trace_id option)] pairs — empty when the invariant holds.
    Checks are counted in the checking domain's current metrics
    registry ([invariant.checks], [invariant.violations],
    [invariant.violations.<name>]), each key created by its first
    update, so a monitor created under one registry and checked under
    another counts into the second.  The monitor keeps no violations:
    {!check} returns them, and logging or retaining them is the
    caller's job (the stack keeps its own log,
    [Internet.invariant_violations]), since the monitor is deliberately
    ignorant of the simulator.

    Predicates registered [~quiescent_only:true] are skipped while the
    event queue is still busy: they describe end states (e.g. tree
    connectivity) that transient in-flight messages legitimately
    violate.

    Predicates registered with [~depends] are {e gated}: a check skips
    one whose dependency reads the same as before its last run when
    that run was clean (see {!register}). *)

type violation = { inv : string; detail : string; trace_id : string option }

type check = unit -> (string * string option) list

type t

val create : unit -> t

val reset : t -> unit
(** Rewind to a freshly created monitor that keeps its predicates: the
    gates forget their cached clean runs. *)

val register :
  ?quiescent_only:bool -> ?depends:(unit -> int) -> t -> name:string -> check -> unit
(** Raises [Invalid_argument] on a duplicate name.

    [depends] gates the predicate on a version of the state it reads.
    Each check reads [depends ()] before it would run the predicate; if
    the value equals the one read before the predicate's last run, and
    that run returned no violation, the predicate is skipped and
    reports nothing.  Only clean results are cached: a predicate that
    reported violations runs again at the next check, so the violations
    (and their counters) are exactly those of an ungated predicate.
    Skips count in [invariant.skipped], a counter created by the first
    skip.

    The contract on [depends]: it must move whenever anything the
    predicate reads changes, and it must be non-decreasing, so that it
    can never come back to a value it had at some earlier clean run.
    A sum of per-structure mutation counters that only grow meets
    both. *)

val names : t -> string list
(** Registered predicate names, in registration order. *)

val check : ?quiescent:bool -> ?only:string -> t -> violation list
(** Run every applicable predicate; [~quiescent:false] (a mid-run
    cadence check) skips [quiescent_only] predicates.  Default is
    [true]: check everything.  [~only] runs just the predicate of that
    name (subject to its gate, whatever [quiescent]) — for a driver
    that knows the moment its predicate's state is due. *)

val pp_violation : Format.formatter -> violation -> unit
