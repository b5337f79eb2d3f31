(** BGP update messages exchanged between peering speakers.

    A real BGP UPDATE carries both announcements and withdrawals; we keep
    one of each per message, which loses nothing at the modelling level
    because our sessions are FIFO. *)

type t =
  | Advertise of Route.t
  | Withdraw of Prefix.t
