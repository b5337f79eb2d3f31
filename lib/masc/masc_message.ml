type t =
  | Space_advertise of Prefix.t list
  | Claim_announce of {
      owner : Domain.id;
      prefix : Prefix.t;
      lifetime_end : Time.t;
      span : Span.t option;
    }
  | Claim_release of { owner : Domain.id; prefix : Prefix.t }
  | Collision_announce of {
      victim : Domain.id;
      victim_prefix : Prefix.t;
      winner : Domain.id;
      winner_prefix : Prefix.t;
      span : Span.t option;
    }
  | Need_space of int
