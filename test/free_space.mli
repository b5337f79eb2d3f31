(** Free-space analysis of an address block: the search primitive of the
    MASC claim algorithm (§4.3.3 of the paper).

    Given a parent space and the set of sub-prefixes already claimed
    within it, the claim algorithm must (a) decompose the unclaimed
    remainder into maximal aligned blocks, (b) pick among the blocks of
    the shortest mask length, and (c) test whether a particular block
    (e.g. the buddy of a prefix being doubled) is entirely free.

    This is the list-based form, kept as the differential oracle for
    [Prefix_trie.fold_free], which answers (a) straight off the claim
    trie. *)

val halves : Prefix.t -> Prefix.t * Prefix.t
(** The two halves of a prefix: its first and second sub-prefix one bit
    longer.  @raise Invalid_argument on a /32. *)

val free_blocks : parent:Prefix.t -> allocated:Prefix.t list -> Prefix.t list
(** The maximal free sub-prefixes of [parent] once every prefix of
    [allocated] that overlaps [parent] is removed; sorted by base
    address.  A claimed prefix covering all of [parent] yields [\[\]];
    no overlap yields [\[parent\]].

    Example from the paper: with 224.0.1/24 and 239/8 allocated out of
    224/4, the shortest-mask free blocks are 228/6 and 232/6. *)

val shortest_mask_blocks : parent:Prefix.t -> allocated:Prefix.t list -> Prefix.t list
(** The subset of {!free_blocks} having the minimal mask length (the
    largest free blocks); [\[\]] when the space is exhausted. *)

val is_free : parent:Prefix.t -> allocated:Prefix.t list -> Prefix.t -> bool
(** Is the candidate (a sub-prefix of [parent]) disjoint from every
    allocated prefix? *)

val candidates : parent:Prefix.t -> allocated:Prefix.t list -> want_len:int -> Prefix.t list
(** The claim-algorithm candidate set: the first length-[want_len]
    sub-prefix of each shortest-mask free block that can hold such a
    sub-prefix.  Empty when no free block is large enough. *)

val free_count : parent:Prefix.t -> allocated:Prefix.t list -> int
(** Total number of free addresses in [parent]. *)
