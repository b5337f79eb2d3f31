(** Open-addressed int-to-int hash map with flat array storage.

    The compact-state backbone: keys and values are nonnegative ints
    interleaved in one int array — slot [i] keeps its key at [2i] and
    its value at [2i+1] — so a map of N entries costs ~2N/0.7 words,
    with no per-entry blocks, no boxing and no GC pressure beyond the
    occasional table doubling, and a probe reads key and value from
    one cache line.  Callers pack their coordinates into one key (e.g.
    a [Host_ref.key]).

    Linear probing with multiply-shift hashing; deletion is
    backward-shift (no tombstones), so lookup cost stays bounded by
    load factor regardless of churn history. *)

type t

val create : unit -> t
(** An empty map; the table grows as needed. *)

val length : t -> int
(** Live entries. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when absent.  Keys and values
    are nonnegative ([-1] is the absence sentinel), so a negative key
    is always absent. *)

val mem : t -> int -> bool
(** [false] for a negative key. *)

val set : t -> int -> int -> unit
(** Insert or overwrite.  @raise Invalid_argument on a negative key or
    value. *)

val remove : t -> int -> unit
(** No-op when absent (any negative key is). *)

val iter : (int -> int -> unit) -> t -> unit
(** Iteration order is the internal slot order — deterministic for a
    given insertion/removal history, but otherwise unspecified. *)

val clear : t -> unit
(** Drop every entry, keeping the allocated table. *)
