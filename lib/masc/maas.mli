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
  alloc_lifetime_end : Time.t;  (** the lifetime of the underlying range *)
}

type t

val create : engine:Engine.t -> node:Masc_node.t -> t
(** When its pool is exhausted, the MAAS requests one
    {!Demand.block_size} block from the MASC node. *)

val reset : t -> unit
(** Forget every pool and live allocation, in place; the listeners
    {!create} registered on the node stay. *)

val allocate : t -> allocation option
(** An unused address, held for the remaining lifetime of the chosen
    range, or [None] when no acquired range has room (the MAAS then asks
    its node for space; retry after the claim settles). *)

val release : t -> allocation -> unit
(** Return an address to the pool.  Releasing twice is an error. *)

val in_use : t -> int

