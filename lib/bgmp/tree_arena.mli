(** Arena-backed BGMP tree state for dense group/domain ids.

    {!Bgmp_router} models one router's protocol behavior with per-entry
    records (joined parent, (S,G) lists, timers).  At fig4-modern scale
    — 75k domains, 10⁵ groups, hundreds of thousands of membership
    events — per-router forwarding state must be two int arrays, not a
    record heap.  Each (group, node) pair on some member's path to the
    group root holds one packed refcount; a node's entry count is the
    classic "multicast forwarding entries per router" state axis.

    Entries are grouped by group: a dense directory maps each group
    with members to one small open-addressed table of
    [node lsl 31 lor refcount] slots, all tables living in one flat int
    pool.  A table doubles at 3/4 load, and when its group's last
    member leaves it goes on a free list for its capacity, to be reused
    by the next group that needs one; so a {!join} or {!leave} reads one
    directory word and one or two table lines rather than one random
    line per path node.  The directory is as long as the largest group
    id joined, so group ids must be dense.

    Joins record the exact path they installed (as a block in a flat
    int pool) and {!leave} tears down that recorded path, so membership
    stays balanced even when SPF trees were repaired between the join
    and the leave — the incremental-routing analogue of BGMP's rule
    that a prune must retrace the join it cancels.  A left block goes
    on a free list for its path length and the next join of that length
    reuses it, so the pool tracks the live members, not the number of
    joins ever made. *)

type t

type handle = int
(** Receipt for one {!join}, to be passed to {!leave} exactly once.
    Non-negative.  It carries the path block's offset and the block's
    generation at the join; {!leave} bumps the generation, so a spent
    receipt stays invalid even after its block is recycled.  The caller
    keeps it with the membership it installed — e.g. as the receipt
    {!Membership.iter_group_churn} hands back on that membership's
    leave. *)

val create : domains:int -> unit -> t
(** An empty arena for routers [0 .. domains-1].
    @raise Invalid_argument when [domains < 1] or [domains >= 2^31]. *)

val join : t -> group:int -> path:Domain.id array -> len:int -> handle
(** Install one member whose packets travel [path.(0) .. path.(len-1)]
    (member end to tree end, inclusive; order is irrelevant): every node
    on the path gains a reference to [group], creating the forwarding
    entry where the count was zero.  Entries past [len] are ignored, so
    [path] may be a caller-owned buffer reused across joins: the arena
    copies the [len] nodes into a pool block — a recycled block of the
    same length when one is free — and keeps no reference to [path].
    @raise Invalid_argument when [len <= 0] or [len > Array.length path],
    on a node out of range, or a negative group. *)

val leave : t -> group:int -> handle -> unit
(** Remove the member installed by the matching {!join}, decrementing
    along the path recorded then (not the path SPF would give now).
    Entries reaching zero references are freed, the path block is
    recycled for a later join of the same length, and a group table left
    empty is recycled for a later group.
    @raise Invalid_argument, changing nothing, when the handle is not
    a live receipt — already spent (its block possibly recycled since)
    or never issued by {!join} — or names another group. *)

val clear : t -> unit
(** Drop every member and entry, keeping the allocated tables: the
    arena then answers, and hands out handles, exactly as a fresh one
    of the same [domains] would.  Handles from before the clear must not
    be passed to {!leave}. *)

val entries : t -> int
(** Live (group, node) forwarding entries across all routers. *)

val live_paths : t -> int
(** Joins not yet left: the live members installed in the arena. *)

val node_entries : t -> int -> int
(** Forwarding entries at this router. *)

val refs : t -> group:int -> node:int -> int
(** Reference count of one entry; [0] when absent.
    @raise Invalid_argument on a negative group or a node out of
    range. *)

val storage_words : t -> int
(** Words held by the arena's flat arrays (group directory + table
    pool + per-router counts + path pool + free-list heads).  Bounded
    by the live state: the path pool holds at most the peak number of
    live paths of each length, and the table pool at most the peak
    number of live group tables of each capacity. *)
