(** Imperative binary min-heap, kept as a test oracle.

    The reference engine in the simulator tests and the list-based
    Dijkstra in the SPF equivalence tests queue on it.  Elements are
    ordered by a user-supplied comparison fixed at creation time; ties
    are broken by insertion order (FIFO), the tie-break the engine's own
    queue must match. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** An empty heap ordered by [cmp]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; the heap is unchanged. *)
