(** Deterministic pseudo-random number generation.

    Every stochastic component of the repository draws its randomness from
    this module rather than from [Stdlib.Random], so that a single integer
    seed reproduces an entire experiment bit-for-bit.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit counter-based
    generator with excellent statistical quality for simulation workloads,
    cheap [split], and no global state. *)

type t
(** A mutable generator.  Its state is 8 unboxed bytes holding the
    64-bit counter, so generators are cheap and a draw allocates
    nothing: int-valued draws never do, and [int64] and [float] are
    inlined into their callers, so their results stay unboxed too
    (except where cross-module inlining is off, e.g. an [-opaque]
    build, which boxes the returned value).  Give every independent
    simulation component its own [split] generator so that adding
    draws to one component does not perturb another. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val reseed : t -> int -> unit
(** [reseed t seed] puts [t] in place into the state of [create seed]. *)

val copy : t -> t
(** [copy t] is a generator that will produce the same future stream as
    [t] without affecting it. *)

val split : t -> t
(** [split t] advances [t] once and returns a new generator whose stream
    is statistically independent of [t]'s. *)

val split_into : t -> t -> unit
(** [split_into t dst] advances [t] as [split t] does and puts [dst] in
    place into the state of the generator [split t] would return. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val sample_into : t -> int -> int -> int array -> unit
(** [sample_into t k n dst] draws [k] distinct integers from [\[0, n)],
    in random order, into [dst.(0 .. k - 1)], leaving the rest of [dst]
    alone.  When [2k < n] draws are marked in a stamp array of [n] ints;
    otherwise a permutation array of [n] ints is shuffled.  Both are
    kept per runtime domain at the largest [n] seen, so a call
    allocates nothing once they have grown.
    @raise Invalid_argument if [k > n], [k < 0] or [dst] is shorter
    than [k]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] is a fresh array of the [k]
    values {!sample_into} would draw, leaving [t] in the same state.
    @raise Invalid_argument if [k > n] or [k < 0]. *)
