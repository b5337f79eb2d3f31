(** Simulated time.

    Time is a float number of seconds since the start of the simulation.
    The MASC experiments span hundreds of days while BGMP joins settle in
    milliseconds, so helpers for both scales are provided. *)

type t = float

val zero : t
val seconds : float -> t
val minutes : float -> t
val hours : float -> t
val days : float -> t

val to_seconds : t -> float
val to_days : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering picking a sensible unit. *)
