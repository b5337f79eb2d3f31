(** Messages exchanged between MASC nodes.

    A child exchanges messages with its parent; the parent relays claims
    among its children (the claim/collision flow of §4.1).  Top-level
    domains, having no parent, exchange the same messages directly with
    their top-level siblings.  Because claims are relayed, each claim
    message carries the identity of the claiming domain ([owner]), which
    is generally not the immediate sender. *)

type t =
  | Space_advertise of Prefix.t list
      (** parent → children: the parent's current address ranges, from
          which the children select their claims *)
  | Claim_announce of {
      owner : Domain.id;
      prefix : Prefix.t;
      lifetime_end : Time.t;
      span : Span.t option;
    }
      (** a new claim, a renewal (same prefix, later lifetime), or a
          growth into a covering prefix by the same owner; [span] is the
          claim's causal span, relayed unchanged *)
  | Claim_release of { owner : Domain.id; prefix : Prefix.t }
      (** the owner relinquishes the range before its lifetime ends *)
  | Collision_announce of {
      victim : Domain.id;
      victim_prefix : Prefix.t;
      winner : Domain.id;
      winner_prefix : Prefix.t;
      span : Span.t option;
    }
      (** sent (or relayed) toward the claimer whose range lost; the
          victim must give up [victim_prefix] and claim elsewhere;
          [span] continues the {e winning} claim's chain *)
  | Need_space of int
      (** child → parent: the child could not place a claim for this
          many addresses; the parent should expand its own space *)
