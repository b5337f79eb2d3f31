(** End hosts.

    Hosts are the senders and receivers of multicast data; the
    inter-domain layer only ever sees them through their domain, but
    traces, delivery checks, and the IP-service-model tests ("senders
    need not be members") need stable host identities. *)

type t = { host_domain : Domain.id; host_index : int }

val make : Domain.id -> int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val key : t -> int
(** A nonnegative int identifying the host, [domain lsl 31 lor index]:
    injective, so hosts can key {!Packed_map} tables.
    @raise Invalid_argument when the domain or index lies outside
    \[0, 2{^31}). *)

val of_key : int -> t
(** The host a {!key} identifies: [of_key (key h)] equals [h]. *)

val pp : Format.formatter -> t -> unit
