(** The MASC expansion policy of §4.3.3: how a domain decides to satisfy
    a demand for more addresses.

    The policy is pure — it inspects the domain's current claims and the
    arena and returns a decision — so it is unit-testable in isolation
    and shared verbatim by the distributed protocol node and the
    Figure-2 allocation simulator.

    Paper rules implemented:
    - target occupancy for a domain's space is [threshold] (75 %);
    - keep at most [max_prefixes] (two) active prefixes per domain;
    - on unsatisfiable demand, {e double} the smallest active prefix
      whose buddy is free when post-doubling utilization stays at or
      above the threshold; otherwise {e claim a small additional prefix}
      just sufficient for the demand; when the domain is at its prefix
      limit and nothing can double under the threshold rule, double
      anyway if physically possible, else {e consolidate}: claim one new
      prefix large enough for the whole current usage and retire the old
      prefixes (they lapse as their addresses expire). *)

type claim = {
  prefix : Prefix.t;
  active : bool;  (** new assignments allowed (inactive = draining) *)
  used : int;  (** addresses currently assigned out of this prefix *)
}
(** A plain snapshot of one claim, for callers that keep no claim
    record of their own. *)

(** What to do about a demand, over the caller's claim type ['c]: the
    claim to assign from or to double is the caller's own value, taken
    from the list it passed, so no lookup by prefix follows. *)
type 'c decision =
  | Assign of 'c  (** room exists in this active claim *)
  | Double of 'c  (** grow this active claim into its buddy *)
  | Claim_new of int  (** claim a fresh prefix with this mask length *)
  | Consolidate of int
      (** claim a fresh prefix with this mask length; deactivate all
          current claims *)
  | Blocked  (** the arena cannot satisfy the demand *)

type params = { threshold : float; max_prefixes : int }

val default_params : params
(** 75 % occupancy, two prefixes — the paper's simulation settings. *)

(** How the policy reads a caller's claim record in place. *)
module type CLAIM = sig
  type t

  val prefix : t -> Prefix.t
  val active : t -> bool
  val used : t -> int
end

(** The policy over the caller's claim type.  Every caller goes through
    this one [decide]: the top-level {!decide} is its instance at
    {!claim}. *)
module Make (C : CLAIM) : sig
  val decide :
    params:params -> space:Address_space.t -> claims:C.t list -> need:int -> C.t decision
  (** [need] is the number of addresses requested (e.g. a block of 256).
      [space] is the arena the domain claims from; [claims] the domain's
      own live claims with their usage.  The best-fit scan that settles
      most demands allocates nothing but the [Assign]. *)
end

val decide : params:params -> space:Address_space.t -> claims:claim list -> need:int -> claim decision
(** {!Make}[.decide] over plain {!claim} snapshots. *)
