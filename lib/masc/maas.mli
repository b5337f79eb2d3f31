(** A Multicast Address Allocation Server (MAAS).

    One MAAS serves one domain ([13] in the paper): group initiators ask
    it for a multicast address; it hands out unique addresses from the
    ranges the domain's MASC node has acquired, with a lifetime bounded
    by the range's lifetime, and asks the node for more space when its
    pool runs dry ("it is expected that MASC will keep ahead of the
    demand").  Allocation is decoupled from MASC: while space is
    available, an address is handed out immediately — the fast local
    path the paper contrasts with acquiring a new range. *)

type allocation = {
  address : Ipv4.t;
  from_range : Prefix.t;
  alloc_lifetime_end : Time.t;
      (** min(requested lifetime, lifetime of the underlying range) *)
}

type t

val create : engine:Engine.t -> node:Masc_node.t -> block_size:int -> t
(** [block_size] is the amount of space requested from the MASC node
    when the pool is exhausted (the paper's simulations use 256). *)

val reset : t -> unit
(** Forget every pool and live allocation, in place; the listeners
    {!create} registered on the node stay. *)

val allocate : t -> ?lifetime:Time.t -> unit -> allocation option
(** An unused address, or [None] when no acquired range has room (the
    MAAS then asks its node for space; retry after the claim settles —
    {!pending} reports how many allocations are waiting).  Default
    lifetime: the remaining lifetime of the chosen range. *)

val release : t -> allocation -> unit
(** Return an address to the pool.  Releasing twice is an error. *)

val in_use : t -> int

val pending : t -> int
(** Allocation attempts that failed and await new space. *)

