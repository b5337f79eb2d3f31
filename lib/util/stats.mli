(** Running statistics and small numeric helpers for the experiment
    harness. *)

type t
(** A mutable accumulator of scalar observations (Welford's algorithm for
    mean/variance; min/max tracked exactly). *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val stddev : t -> float
(** Square root of the unbiased sample variance; 0. with fewer than two
    observations. *)

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val merge : t -> t -> t
(** Combine two accumulators as if all observations were added to one. *)

(** Batch helpers over float arrays. *)

val mean_of : float array -> float

type series = { label : string; points : (float * float) array }
(** A named sequence of (x, y) points, as printed by the figure
    harness. *)

val pp_series : Format.formatter -> series -> unit
(** Gnuplot-style output: a [# label] header then one "x y" pair per
    line. *)
