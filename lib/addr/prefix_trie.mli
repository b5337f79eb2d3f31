(** Binary radix trie keyed by address prefixes.

    This is the routing-table structure used by the BGP substrate (the
    G-RIB and M-RIB are tries of group routes) and by the BGMP component
    to look up the root domain of a group address via longest-prefix
    match — exactly the lookup BGP routers perform. *)

type 'a t

val create : unit -> 'a t

val reset : 'a t -> unit
(** Remove every binding, in place. *)

val cardinal : 'a t -> int
(** Number of prefixes bound to a value. *)

val add : 'a t -> Prefix.t -> 'a -> unit
(** Bind a prefix, replacing any previous binding of exactly that
    prefix. *)

val remove : 'a t -> Prefix.t -> unit
(** Remove the binding of exactly that prefix, if any. *)

val find_exact : 'a t -> Prefix.t -> 'a option

val longest_match : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** The most specific bound prefix covering the address. *)

val find_longest : 'a t -> Ipv4.t -> 'a option
(** The value of {!longest_match}, found in one descent that allocates
    nothing: the result is the stored binding itself. *)

val overlapping : 'a t -> Prefix.t -> (Prefix.t * 'a) list
(** All bindings whose prefix overlaps the argument (covers it or is
    covered by it), in increasing prefix order.  Visits only the path
    down to the prefix and the subtree below it. *)

val exists_overlapping : 'a t -> Prefix.t -> ('a -> 'b -> bool) -> 'b -> bool
(** [exists_overlapping t p f arg]: does [f v arg] hold for the value [v]
    of some binding overlapping [p]?  Visits what {!overlapping} visits
    and stops at the first hit.  [arg] is handed to [f] so that a
    predicate with no free variables (a constant closure) can still
    compare against a per-call value: the query then allocates
    nothing. *)

val fold_covered_by : 'a t -> Prefix.t -> init:'b -> f:(Prefix.t -> 'a -> 'b -> 'b) -> 'b
(** Fold over the bindings whose prefix is subsumed by the argument
    (including an exact binding), in increasing prefix order. *)

val fold_free : 'a t -> Prefix.t -> init:'b -> f:(Ipv4.t -> int -> 'b -> 'b) -> 'b
(** [fold_free t cover ~init ~f] calls [f base len acc] for each maximal
    unbound block inside [cover] (the buddy decomposition of the cover
    minus every binding overlapping it), in increasing address order.
    A binding covering [cover] leaves nothing free; no binding inside it
    leaves the whole cover free.  Visits only the path down to [cover]
    and the subtree below it, and allocates nothing of its own: this is
    the free-block search of the MASC claim algorithm (§4.3.3). *)

val fold : 'a t -> init:'b -> f:(Prefix.t -> 'a -> 'b -> 'b) -> 'b
(** Fold over all bindings in increasing prefix order. *)

val iter_values : 'a t -> ('a -> unit) -> unit
(** The bound values in increasing prefix order.  Builds no prefix, so
    the walk itself allocates nothing. *)

val to_list : 'a t -> (Prefix.t * 'a) list
(** Bindings in increasing prefix order. *)
