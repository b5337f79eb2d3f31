(** A MASC allocation arena: the view a MASC node keeps of one address
    space it allocates from.

    The arena is described by {e covers} — the prefixes that delimit the
    space (the parent's advertised ranges, or 224/4 itself for top-level
    domains) — and {e claims} — the sub-prefixes it has heard claimed by
    the domains allocating out of that space (its siblings and itself).
    All the claim algorithm's questions ("what are the largest free
    blocks?", "can this prefix double into its buddy?") are answered
    here. *)

type t

val create : unit -> t

val reset : t -> unit
(** Back to the empty arena {!create} returns, in place: no cover, no
    claim, version 0. *)

val add_cover : t -> Prefix.t -> unit
(** Extend the space.  Overlapping covers are allowed (they are unioned
    logically); an exact duplicate is a no-op. *)

val remove_cover : t -> Prefix.t -> unit
(** Shrink the space by exactly the addresses of the prefix.  A cover
    inside it is dropped; a cover strictly containing it (for instance
    one that {!add_cover} merged from it and its buddy) is split, and
    what remains of it stays in the space.  Removing a prefix outside
    every cover is a no-op. *)

val covers : t -> Prefix.t list
(** In prefix order. *)

val register : t -> owner:int -> Prefix.t -> unit
(** Record a claim by [owner].  @raise Invalid_argument if the exact
    prefix is already registered (collisions are decided before
    registration). *)

val unregister : t -> Prefix.t -> unit
(** Forget a claim (expiry, release, or collision loss). *)

val owner_of : t -> Prefix.t -> int option

val version : t -> int
(** A mutation counter over the claims: it grows by one whenever
    {!register} adds a claim or {!unregister} removes one, and never
    moves otherwise (cover changes, lookups, an [unregister] of an
    unclaimed prefix).  Two equal readings mean the same claims. *)

val claims : t -> (Prefix.t * int) list
(** All (prefix, owner) claims, in prefix order. *)

val conflicting : t -> Prefix.t -> (Prefix.t * int) list
(** Registered claims overlapping the candidate, in prefix order. *)

val claimed_addresses : t -> int
(** Total size of the registered claims.  Allocates nothing beyond the
    fold. *)

val claimed_within : t -> Prefix.t -> int
(** Total size of the registered claims inside the prefix (including the
    prefix itself). *)

val foreign_conflict : t -> owner:int -> Prefix.t -> bool
(** Does a claim registered to someone other than [owner] overlap the
    candidate?  Allocates nothing. *)

val is_free : t -> Prefix.t -> bool
(** Inside some cover and overlapping no registered claim. *)

val choose_claim : t -> rng:Rng.t -> want_len:int -> Prefix.t option
(** One step of the §4.3.3 claim algorithm: compute the free blocks of
    every cover, keep the usable ones (those that can hold a
    /[want_len]), then keep those of the shortest mask length among
    them, pick one uniformly at random, and return its first sub-prefix
    of length [want_len].  [None] when no free block can hold a
    /[want_len].  Reads the free blocks straight off the claim trie and
    builds no list. *)

val choose_claim_placed :
  t -> rng:Rng.t -> want_len:int -> placement:[ `First | `Random ] -> Prefix.t option
(** Like {!choose_claim} but with a selectable placement rule inside the
    chosen free block: [`First] is the paper's first-sub-prefix rule;
    [`Random] places the claim at a uniformly random aligned position —
    the ablation baseline showing why the paper's rule aggregates
    better. *)

val can_double : t -> Prefix.t -> bool
(** Is the buddy of this claimed prefix entirely free and the doubled
    prefix still inside a single cover?  (The doubling expansion of
    §4.3.3.)  One trie descent; builds no list. *)

val free_addresses : t -> int
(** Total unclaimed addresses across the covers. *)

val total_addresses : t -> int
(** Total addresses across the covers (overlapping covers counted
    once). *)
