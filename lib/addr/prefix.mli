(** CIDR address prefixes and prefix arithmetic.

    A prefix ["224.0.1.0/24"] denotes the 256 addresses whose first 24 bits
    match.  All of MASC's claim machinery is prefix arithmetic: finding the
    free sub-blocks of a parent's space, taking the first sub-prefix of a
    chosen size, doubling a block into its buddy, and aggregating siblings
    back together (CIDR aggregation, as BGP does for group routes). *)

type t = private { base : Ipv4.t; len : int }
(** [base] always has all host bits zero; [len] in [\[0, 32\]]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] masks [addr] down to [len] significant bits.
    @raise Invalid_argument if [len] is outside [\[0, 32\]]. *)

val make_exact : Ipv4.t -> int -> t
(** Like {!make} but requires the host bits of [addr] to already be zero.
    @raise Invalid_argument otherwise — use this when a dirty base
    indicates a logic error. *)

val of_string : string -> t
(** Parse ["a.b.c.d/len"] (also accepts a bare address as a /32).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: by base address, then by length (shorter first). *)

val equal : t -> t -> bool

val base : t -> Ipv4.t

val len : t -> int

val size : t -> int
(** Number of addresses covered: [2^(32-len)]. *)

val last : t -> Ipv4.t
(** Highest address in the prefix. *)

val mem : Ipv4.t -> t -> bool
(** [mem addr p]: does [p] cover [addr]? *)

val subsumes : t -> t -> bool
(** [subsumes p q]: is every address of [q] inside [p]?  (Reflexive.) *)

val overlaps : t -> t -> bool
(** Prefixes overlap iff one subsumes the other. *)

val buddy : t -> t
(** The sibling block that, merged with [t], forms the enclosing
    prefix of length [len - 1].  @raise Invalid_argument on a /0. *)

val parent : t -> t
(** The enclosing prefix one bit shorter.  @raise Invalid_argument on a
    /0. *)

val double : t -> t
(** [double p = parent p]: the block grown one bit, covering [p] and its
    buddy.  Named for the MASC expansion operation. *)

val first_subprefix : t -> int -> t
(** [first_subprefix p l] is the lowest sub-prefix of [p] with length [l]
    — the MASC claim algorithm's placement rule ("the prefix it then
    claims is the first sub-prefix of the desired size within the chosen
    space").  @raise Invalid_argument if [l < len p]. *)

val nth_subprefix : t -> int -> int -> t
(** [nth_subprefix p l i] is the [i]-th (0-based) sub-prefix of length
    [l].  @raise Invalid_argument if out of range. *)

val subprefix_count : t -> int -> int
(** How many length-[l] sub-prefixes fit in [p]. *)

val aggregate : t list -> t list
(** Repeatedly merge buddies and drop subsumed prefixes until a fixpoint:
    the minimal CIDR cover of the input set.  Output is sorted. *)

val mask_for_count : int -> int
(** [mask_for_count n] is the shortest prefix length whose block holds at
    least [n] addresses (e.g. [mask_for_count 1024 = 22]).
    @raise Invalid_argument if [n <= 0] or [n > 2^32]. *)

val class_d : t
(** 224.0.0.0/4 — the complete IPv4 multicast address space from which
    all MASC claims ultimately descend. *)
