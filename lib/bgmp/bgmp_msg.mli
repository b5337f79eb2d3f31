(** BGMP messages exchanged between peering border routers over their
    (modelled) TCP sessions: shared-tree joins and prunes, the
    source-specific variants of §5.3, and data packets. *)

type t =
  | Join of { group : Ipv4.t; span : Span.t option }
      (** (star,G) join toward the group's root domain; [span] continues
          the causal chain that triggered the join, re-minted per hop *)
  | Prune of Ipv4.t
  | Join_sg of { source : Host_ref.t; group : Ipv4.t }
      (** source-specific join toward the source's domain *)
  | Prune_sg of { source : Host_ref.t; group : Ipv4.t }
  | Data of { group : Ipv4.t; source : Host_ref.t; payload : int; hops : int }
      (** a multicast packet; [hops] counts inter-domain links traversed
          (for path-length verification against {!Path_eval}) *)
