(** Greedy counterexample shrinking.

    Given a failing schedule and a [still_fails] predicate (the caller
    closes it over the oracle, the trial's seed, and "fails the same
    way": same verdict and, for violations, the original primary
    invariant still violated), shrink in two passes repeated to a
    fixpoint:

    {ol
    {- {b Fault removal}: try deleting each step, left to right; keep
       any deletion that still fails and restart the scan, so one pass
       over an n-step schedule costs at most O(n^2) oracle runs.}
    {- {b Time coarsening}: snap each surviving step's time down to the
       largest round quantum (1 d, 6 h, 1 h, 1 min) that preserves the
       failure, making the minimal counterexample's timing readable.}}

    Within one [shrink] each distinct candidate runs [still_fails]
    once: a candidate already judged (the final fixpoint pass re-tries
    what the previous pass kept) reuses its verdict.  The predicate
    must therefore be a function of the schedule alone.

    Both passes are deterministic: no randomness, order fixed by the
    schedule itself, so the same failing schedule always shrinks to the
    same minimal counterexample regardless of seed order or [--jobs]. *)

type result = {
  shrunk : Schedule.t;  (** still fails; no single-step removal or coarsening does *)
  steps : int;
      (** candidates judged while shrinking, a repeated candidate
          included although it reuses its verdict instead of re-running
          the oracle *)
}

val shrink : still_fails:(Schedule.t -> bool) -> Schedule.t -> result
(** The input schedule is assumed failing (it is returned unchanged,
    with [steps = 0], if it is already a single uncoarsenable step). *)
