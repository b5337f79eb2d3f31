(** Fault schedules: the explorer's search space.

    A schedule is a time-sorted list of fault injections against one
    simulated internet.  Two fault families are distinguished on
    purpose: {e detected} topology faults ([Link_down]/[Link_up], which
    go through [Internet.fail_link] — BGP sessions drop, alternates are
    selected, trees rebuild) and {e silent} transport faults
    ([Partition]/[Heal], which cut the shared channel without any
    protocol reaction — the paper's §4.4 start-up partition), plus a
    seeded message-loss dial ([Set_loss]).

    Schedules have a canonical string form (["part:0-1@3600"]) used in
    the violation ledger, for CLI round-trips, and as the input of the
    schedule fingerprint. *)

type fault =
  | Link_down of Domain.id * Domain.id
  | Link_up of Domain.id * Domain.id
  | Partition of Domain.id * Domain.id
  | Heal of Domain.id * Domain.id
  | Set_loss of float

type step = { at : Time.t; fault : fault }

type t = step list
(** Sorted by time (stable: equal-time steps keep their order). *)

val make : step list -> t
(** Sort steps by time, stably. *)

val faults : t -> int

val last_at : t -> Time.t
(** Time of the latest step; [Time.zero] for the empty schedule. *)

val ends_all_up : t -> bool
(** Whether replaying the schedule leaves every link up and the loss
    rate at zero — i.e. whether end-state (quiescent-only) invariants
    are sound after the run.  A [Link_down]/[Partition] with no later
    matching [Link_up]/[Heal] makes this false. *)

val to_string : t -> string
(** Comma-joined steps in canonical form, e.g.
    ["down:0-1@3600,loss:0.05@7200"]; [""] for the empty schedule.
    Times are seconds with no trailing zeros; endpoint pairs are
    printed low-high. *)

val of_string : string -> (t, string) result
(** Parse the canonical form (steps in any order; result is sorted). *)

val fingerprint : t -> string
(** FNV-1a/64 of the canonical string, as 16 hex digits.  Stable across
    runs and job counts: two schedules collide iff their canonical
    strings do. *)
