(** IPv4 addresses.

    Addresses are represented as plain non-negative [int]s in
    [\[0, 2^32)] (OCaml ints are 63-bit on all supported platforms), which
    keeps prefix arithmetic allocation-free. *)

type t = int
(** An address; always in [\[0, 2^32)]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [\[0, 255\]]. *)

val of_string : string -> t
(** Parse dotted-quad notation.  @raise Invalid_argument on malformed
    input. *)

val of_string_opt : string -> t option

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
