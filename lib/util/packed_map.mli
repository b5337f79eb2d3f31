(** Open-addressed int-to-int hash map with flat array storage.

    The compact-state backbone: keys and values are nonnegative ints
    interleaved in one int array — slot [i] keeps its key at [2i] and
    its value at [2i+1] — so a map of N entries costs ~2N/0.7 words,
    with no per-entry blocks, no boxing and no GC pressure beyond the
    occasional table doubling, and a probe reads key and value from
    one cache line.  Arena layers (per-router G-RIB and BGMP tree
    state) pack their (group, node) coordinates into one key and build
    on this; {!add} gives them a one-probe refcount update.

    Linear probing with multiply-shift hashing; deletion is
    backward-shift (no tombstones), so lookup cost stays bounded by
    load factor regardless of churn history. *)

type t

val create : ?initial:int -> unit -> t
(** [initial] is a capacity hint (entries, not slots); the table grows
    as needed regardless. *)

val length : t -> int
(** Live entries. *)

val capacity : t -> int
(** Current slot count — [2 * capacity] words of storage. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when absent.  Keys and values
    are nonnegative ([-1] is the absence sentinel), so a negative key
    is always absent. *)

val mem : t -> int -> bool
(** [false] for a negative key. *)

val set : t -> int -> int -> unit
(** Insert or overwrite.  @raise Invalid_argument on a negative key or
    value. *)

val add : t -> int -> int -> int
(** [add t k d] adds [d] to the value bound to [k], an absent key
    counting as [0], and returns the result: the key is inserted when
    it was absent, and removed when the result is [0] — one probe
    either way.  @raise Invalid_argument on a negative key or a
    negative result (the map is then unchanged). *)

val remove : t -> int -> unit
(** No-op when absent (any negative key is). *)

val iter : (int -> int -> unit) -> t -> unit
(** Iteration order is the internal slot order — deterministic for a
    given insertion/removal history, but otherwise unspecified. *)

val clear : t -> unit
(** Drop every entry, keeping the allocated table. *)
