(** Arena-backed G-RIB state for dense group/root ids.

    The per-router G-RIB of the full protocol stack ({!Speaker}) keeps
    one record per route with AS paths and provenance — right for
    protocol dynamics, far too heavy for state-scaling studies where
    75k routers each hold entries for thousands of group ranges.  This
    arena keeps exactly what a G-RIB lookup answers — {e next hop
    toward the group's root domain} — in one dense int row per group
    (one word per router, made on the group's first entry), plus a
    per-router entry count, so "G-RIB size vs members/groups" curves
    come from int arrays instead of record heaps, and {!find}, {!mem}
    and {!set} are one array read with no probe loop.  Storage is
    [domains] words per group that ever held an entry, so group ids
    must be dense: a group-range index, not an address. *)

type t

val create : domains:int -> unit -> t
(** An empty arena for routers [0 .. domains-1].  Group ids are dense
    nonnegative ints (their range is not fixed up front). *)

val find : t -> group:int -> node:int -> int
(** The next hop toward the group's root: a domain id, [-1] when [node]
    is itself the root (an entry with no next hop), or [-2] when the
    router holds no entry. *)

val mem : t -> group:int -> node:int -> bool

val set : t -> group:int -> node:int -> int -> unit
(** [set t ~group ~node hop] installs or overwrites the entry ([hop] is
    a domain id, or [-1] at the root itself). *)

val clear : t -> unit
(** Drop every entry, keeping the allocated rows: the arena then
    answers exactly as a fresh one of the same [domains] would. *)

val entries : t -> int
(** Total (group, node) entries across all routers. *)

val node_entries : t -> int -> int
(** This router's G-RIB entry count — the paper's per-router state
    axis. *)
