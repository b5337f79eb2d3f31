(** Open-addressed int-to-int hash map with flat array storage.

    The compact-state backbone: keys and values are nonnegative ints
    interleaved in one int array — slot [i] keeps its key at [2i] and
    its value at [2i+1] — so a map of N entries costs ~2N/0.7 words,
    with no per-entry blocks, no boxing and no GC pressure beyond the
    occasional table doubling, and a probe reads key and value from
    one cache line.  Callers pack their coordinates into one key (e.g.
    a [Host_ref.key]).

    Linear probing with multiply-shift hashing.  Entries are only
    added or overwritten, and {!clear} empties the whole map, so there
    are no tombstones and lookup cost stays bounded by the load
    factor. *)

type t

val create : unit -> t
(** An empty map; the table grows as needed. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when absent.  Keys and values
    are nonnegative ([-1] is the absence sentinel), so a negative key
    is always absent. *)

val set : t -> int -> int -> unit
(** Insert or overwrite.  @raise Invalid_argument on a negative key or
    value. *)

val clear : t -> unit
(** Drop every entry, keeping the allocated table. *)
