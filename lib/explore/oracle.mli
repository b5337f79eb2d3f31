(** The explorer's oracle: run one fault schedule deterministically and
    judge the outcome.

    Each run starts from a fresh parameterized internet — built anew, or
    a reused {!stack} rewound in place —
    ({!Gen.masc_hierarchy}: [tops] backbone domains in a full peer mesh,
    [children_per_top] stub customers each) under quick protocol timers,
    injects the schedule's faults as engine events, drives a fixed
    workload (demand-driven allocation at every top, cross-top joins
    from every stub), and lets the stack settle three claim-renewal
    cycles past the last fault — long enough for the §4.4
    post-partition collision duel and its aftershock claims to resolve,
    so a healed partition that self-repairs is {e not} reported as a
    violation.

    The verdict combines two oracles:

    - the {b invariant registry}: a cadence monitor checks the live
      (transient-tolerant) invariants throughout, and a final end-state
      check runs every predicate — quiescent-only ones included exactly
      when the schedule leaves every link up and loss at zero
      ({!Schedule.ends_all_up}), since tree/G-RIB agreement is
      undefined while the topology is cut;
    - {b the convergence watermark}: if the engine's last durable state
      change ([Engine.converged_at]) lands past the schedule's repair
      deadline (last fault + one claim lifetime + grace), the stack
      never converged — [Non_convergence] even when every invariant
      holds. *)

type verdict = Pass | Violation | Non_convergence

val verdict_to_string : verdict -> string

type arena = { tops : int; children_per_top : int }

val default_arena : arena
(** 2 tops x 2 children: the smallest internet where every fault family
    has something to break (peer mesh, provider-customer edges, sibling
    claims out of 224/4). *)

type outcome = {
  verdict : verdict;
  violations : Invariant.violation list;
      (** the final end-state check's violations (not the transient ones) *)
  transient : int;  (** violations seen by mid-run cadence checks *)
  converged_at : Time.t option;
  deadline : Time.t;  (** convergence deadline the verdict used *)
  horizon : Time.t;  (** virtual time the run ended at *)
}

val verdict_of :
  converged_at:Time.t option -> deadline:Time.t -> violations:Invariant.violation list -> verdict
(** The pure verdict rule: violations trump everything, then the
    watermark test.  Exposed for unit tests. *)

val topology : arena -> Topo.t
(** The arena's internet ({!Gen.masc_hierarchy}). *)

type stack
(** One oracle internet for one arena, built by the first run on it and
    rewound in place by every later run ({!Internet.reset}), so a
    campaign pays for the build once per worker instead of once per
    run.  A stack belongs to one domain at a time. *)

val stack : arena -> stack
(** An unbuilt stack for [arena]: nothing is allocated until its first
    run. *)

val run :
  ?on_check:(Internet.t -> Invariant.violation list -> unit) ->
  ?stack:stack ->
  seed:int ->
  Schedule.t ->
  outcome * Internet.t
(** Deterministic in [(arena, seed, schedule)], the arena being
    [stack]'s.  The returned internet is final-state: its trace carries
    the ["violation"] entries (with blamed trace ids) of every check,
    for repro dumps.  A 2 h grace pads the convergence deadline.
    [on_check] sees the live internet and the violations of each
    cadence check right after it runs: the observation point for
    comparing the predicates against an independent implementation.

    [stack] defaults to a new stack of {!default_arena}.  The first run
    on a stack builds its internet ({!Internet.create} at [seed});
    every later run rewinds that internet to [seed] and runs on it
    instead.  Either way the outcome, the recording and the {!Metrics}
    the run adds to the current registry are exactly those of a fresh
    build, whatever ran on the stack before.  The returned [Internet.t]
    is the stack's own: valid until the next run on [stack].
    @raise Invalid_argument if a schedule step names a link absent from
    the arena's topology. *)
