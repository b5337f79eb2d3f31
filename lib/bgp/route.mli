(** BGP routes.

    The architecture uses a new type of BGP route, the {e group route}: a
    multicast address range claimed by a domain via MASC, injected into
    BGP, and propagated subject to policy.  A border router that performs
    a longest-match lookup of a group address in its G-RIB learns the
    next hop toward the group's {e root domain}.  We model routes at the
    domain level (one logical speaker per domain). *)

type t = {
  prefix : Prefix.t;  (** the advertised address range *)
  origin : Domain.id;  (** the root domain that injected the range *)
  as_path : Domain.id list;
      (** domains the advertisement traversed, nearest first; [\[\]] for a
          self-originated route.  Loop prevention rejects routes whose
          path already contains the receiving domain. *)
  lifetime_end : Time.t option;
      (** expiry of the underlying MASC claim, when known; carried so
          downstream RIBs can garbage-collect without a withdraw after
          partition. *)
  span : Span.t option;
      (** causal span of the MASC claim this route came from; ignored by
          {!prefer}/{!equal} (it is provenance, not routing state) and
          preserved by {!through}. *)
}

val originate : ?lifetime_end:Time.t -> ?span:Span.t -> Domain.id -> Prefix.t -> t
(** A route as first injected by its root domain. *)

val through : t -> Domain.id -> t
(** [through r d] is [r] as re-advertised by [d]: [d] prepended to the
    AS path. *)

val path_length : t -> int

val contains_loop : t -> Domain.id -> bool
(** Would accepting this route at [d] create a loop? *)

val next_hop : t -> Domain.id option
(** The neighbor the route was learned from ([None] for self-originated
    routes). *)

val prefer : t -> t -> t
(** The BGP decision process restricted to the attributes we model:
    shortest AS path wins; ties break to the lower origin id, then the
    lower first-hop id — a deterministic stand-in for router-id
    tie-breaking. *)

val equal : t -> t -> bool
