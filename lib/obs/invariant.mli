(** Live protocol invariants, checked while a run is in flight.

    A monitor holds named predicates over live protocol state.  Each
    predicate returns the list of current violations as
    [(detail, trace_id option)] pairs — empty when the invariant holds.
    Checks are counted in a metrics registry ([invariant.checks],
    [invariant.violations], [invariant.violations.<name>]); recording
    violations in the event log is the caller's job, since the monitor
    is deliberately ignorant of the simulator.

    Predicates registered [~quiescent_only:true] are skipped while the
    event queue is still busy: they describe end states (e.g. tree
    connectivity) that transient in-flight messages legitimately
    violate. *)

type violation = { inv : string; detail : string; trace_id : string option }

type check = unit -> (string * string option) list

type t

val create : ?registry:Metrics.registry -> unit -> t
(** The default registry is the creating domain's {!Metrics.current}
    at call time, so monitors created inside a [Par] task count into
    that task's shard. *)

val register : ?quiescent_only:bool -> t -> name:string -> check -> unit
(** Raises [Invalid_argument] on a duplicate name. *)

val names : t -> string list
(** Registered predicate names, in registration order. *)

val check : ?quiescent:bool -> t -> violation list
(** Run every applicable predicate; [~quiescent:false] (a mid-run
    cadence check) skips [quiescent_only] predicates.  Default is
    [true]: check everything. *)

val violations_seen : t -> violation list
(** Violations returned by every {!check} so far, oldest first, capped
    at a bounded ring of 64: the head of the history survives, so the
    {e first} violation's detail and trace id are always recoverable
    after a run without re-deriving them from metrics.  Counter
    semantics ([invariant.violations.*]) are unchanged by retention. *)

val pp_violation : Format.formatter -> violation -> unit
