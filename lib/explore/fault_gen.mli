(** Deterministic fault-schedule generation.

    The generator walks the search space in two phases, both pure
    functions of [(topo, budget, max_faults, seed, horizon)] — the
    whole batch is produced on the main domain before any trial runs,
    so a campaign's schedule list is independent of [--jobs]:

    {ol
    {- {b Enumeration}: for every topology link, the single-fault
       schedules — a permanent detected failure ([down]) and a
       permanent silent partition ([part]) at each of a few canonical
       injection times.  These are the classic §4.4-style scenarios
       (claim-time partitions) and guarantee small known-violation
       schedules appear in every campaign regardless of seed.}
    {- {b Sampling}: seeded random schedules of 1..[max_faults] steps
       mixing detected/silent faults, restores, and loss episodes at
       random times within the fault window.}}

    Enumeration is truncated (never padded) to [budget]; sampling fills
    whatever budget remains. *)

val generate :
  topo:Topo.t -> budget:int -> max_faults:int -> seed:int -> horizon:Time.t -> Schedule.t list
(** [budget] schedules (fewer only if [budget <= 0]).  Position [i] in
    the result is the campaign's trial [i]. *)
